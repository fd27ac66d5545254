"""Independent oracles the tests check the library against.

Everything here deliberately avoids the code paths under test: the
quote-loader oracle parses row by row into dicts keyed by date and
aligns the days in a per-day loop, the index-path oracle is a scalar
day-by-day Euler loop, the exact-CIR path oracle draws each day's
noncentral chi-square transition instead of an Euler step, the
batched ``simulate`` pipeline has the per-scenario loop it replaced,
on one full price panel per path, the rolled-series and two-contract
strategy oracles are per-day loops over their own rank and quote
lookups, the rolled series also has the
per-roll rescan it replaced (on the live-contract count that
``rank_columns`` replaced), the weight and moment-fit oracles are
brute-force grid scans, the one-day tracking error has its exact
discrete-time coefficients, the constrained LS oracle is a dense
bordered KKT solve, the market price of risk is its direct quotient,
the MLE oracle searches from four starts where the library searches
from one, the likelihood oracle sums the Debye expansion as five
polynomials in (q/R)^2 on two Bessel routes, and the special-function
oracles come from mpmath at 40 significant digits.
"""

import logging
import math
from pathlib import Path

import numpy as np
from scipy.optimize import OptimizeResult, minimize

from vixtrack import (
    DataError,
    HistoricalParams,
    PricePanel,
    b_coefficient,
    optimal_weight,
    rank_columns,
    tracking_coefficients,
)
from vixtrack.calibrate import (
    _DEBYE_P,
    _PENALTY,
    MLE_BOUNDS,
    _bfgs_in_box,
    _neg_avg_loglik_and_score,
    initial_guess_from_moments,
)
from vixtrack.data import MM_DAY_BASIS
from vixtrack.model import CYCLE_DAYS, TRADING_DAYS_PER_YEAR

_log = logging.getLogger(__name__)

# One trading day in years, the step of every daily grid.
DT = 1.0 / 252.0


class VolatilitySingularityError(ZeroDivisionError):
    """Raised when the local volatility evaluates to zero where a division
    by it is required."""


def rank_column(panel, day, rank):
    """Column of the ``rank``-th contract with ttm > 0 on ``day``."""
    live = [i for i, ttm in enumerate(panel.ttms[day]) if ttm > 0]
    if not 1 <= rank <= len(live):
        raise DataError(f"rank {rank} not available on day {day}")
    return live[rank - 1]


def quote(panel, day, column):
    """Price of ``column`` on ``day``, or None when it has no quote."""
    px = float(panel.prices[day, column])
    return None if np.isnan(px) else px


def rolled_series_loop(panel, rank):
    """Day-by-day reference for ``build_rolled_series``.

    Walks the panel one day at a time through its own rank and quote
    lookups (``rank_column``, ``quote``), marking the held contract and
    rolling when the rank moves off it or its quotes stop before
    settlement.  The contract rolled into must be the next one by
    expiry, which is the next column of the panel.
    """
    n = panel.n_days
    values = np.empty(n)
    values[0] = 100.0
    held = rank_column(panel, 0, rank)
    units = 100.0 / quote(panel, 0, held)
    for j in range(n):
        if j > 0:
            px = quote(panel, j, held)
            if px is None:
                raise DataError(f"held contract {held} has no quote on day {j}")
            values[j] = units * px
        if j == n - 1:
            break
        current = rank_column(panel, j, rank)
        target = None
        if current != held:
            if current != held + 1:
                raise DataError(f"rank {rank} jumped to {current} on day {j}")
            target = current
        elif quote(panel, j + 1, held) is None:
            if float(panel.ttms[j, held]) > 3.0 / 252.0:
                raise DataError(f"held contract {held} stops far from settlement")
            target = held + 1
        if target is not None:
            px = None if target == panel.contracts.size else quote(panel, j, target)
            if px is None:
                raise DataError(f"roll target {target} has no quote on day {j}")
            units = values[j] / px
            held = target
    return values


def rank_columns_cumsum(ttms, *ranks):
    """``rank_columns`` by a live-contract count over every day and
    contract: rank r is the column where the count reaches r."""
    live = np.cumsum(ttms[:-1] > 0, axis=1)
    if min(ranks) < 1:
        raise DataError(f"rank {min(ranks)} not available: ranks are 1-based")
    short = np.flatnonzero(live[:, -1] < max(ranks))
    if short.size:
        raise DataError(f"rank {max(ranks)} not available on day {short[0]}")
    return np.stack([np.argmax(live >= r, axis=1) for r in ranks], axis=1)


def rolled_series_rolls(panel, rank):
    """``build_rolled_series`` one roll event at a time, with the same
    checks and messages.

    From each roll it rescans the remaining days for the next one: the
    first day the rank moves off the held contract or the held contract
    has no quote the next day.  Between rolls it marks the held
    contract as one slice.
    """
    ids, prices, ttms = panel.contracts, panel.prices, panel.ttms
    n = panel.n_days
    if n < 2:
        raise DataError(f"a rolled series needs at least 2 days, got {n}")
    rank_col = rank_columns_cumsum(ttms, rank)[:, 0]
    held = rank_col[0]
    quoted = ~np.isnan(prices)

    values = np.empty(n)
    values[0] = 100.0
    units = 100.0 / prices[0, held]
    opened = 0  # day the position in ``held`` was opened
    scan = 0  # first day that can roll it
    while True:
        due = (rank_col[scan:] != held) | ~quoted[scan + 1 :, held]
        roll = scan + int(np.argmax(due)) if due.any() else None
        stop = n if roll is None else roll + 1
        marks = prices[opened + 1 : stop, held]
        if np.isnan(marks).any():
            day = opened + 1 + int(np.argmax(np.isnan(marks)))
            raise DataError(f"held contract {ids[held]} has no quote on day {day}")
        values[opened + 1 : stop] = units * marks
        if roll is None:
            return values
        target = held + 1
        if rank_col[roll] != held:
            if rank_col[roll] != target:
                raise DataError(
                    f"rank {rank} moved from {ids[held]} to {ids[rank_col[roll]]} "
                    f"on day {roll}, not to the next contract by expiry; "
                    "quote gap in the panel"
                )
        elif ttms[roll, held] > 3.0 / TRADING_DAYS_PER_YEAR:
            raise DataError(
                f"held contract {ids[held]} has no quote on day {roll + 1} "
                f"but is far from settlement; quote gap in the panel"
            )
        if target == ids.size or not quoted[roll, target]:
            raise DataError(
                f"no quote on day {roll} for the contract after {ids[held]}, "
                "which the position rolls into"
            )
        units = values[roll] / prices[roll, target]
        held = target
        opened = roll
        scan = roll + 1


def _parse_quote_file(path: Path):
    """The (line_no, date, code, field, value_str) rows of a quote file, as a list."""
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line_no == 1 and line.lower().startswith("date,"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise DataError(
                    f"{path.name}:{line_no}: expected 4 fields, got {len(parts)}"
                )
            rows.append((line_no, *parts))
    return rows


def _parse_date(path: Path, line_no: int, text: str) -> np.datetime64:
    try:
        return np.datetime64(text, "D")
    except ValueError:
        raise DataError(f"{path.name}:{line_no}: bad date {text!r}") from None


def _parse_float(path: Path, line_no: int, text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise DataError(f"{path.name}:{line_no}: bad number {text!r}") from None
    if not math.isfinite(v):
        raise DataError(f"{path.name}:{line_no}: non-finite value {text!r}")
    return v


def load_panel_rows(data_dir, window=None, n_ranks: int = 7) -> PricePanel:
    """Row-by-row reference for ``load_panel``: the same arguments and
    result, from per-row date and float parsing, dicts keyed by date
    and a per-day loop of lookups.  A repeated row overwrites the
    earlier one (``load_panel`` rejects it).
    """
    data_dir = Path(data_dir)
    spot_path = data_dir / "spot.csv"
    fut_path = data_dir / "futures.csv"
    rate_path = data_dir / "rates.csv"
    for p in (spot_path, fut_path, rate_path):
        if not p.exists():
            raise DataError(f"missing input file {p}")

    spot_by_date: dict = {}
    for line_no, d, code, fld, val in _parse_quote_file(spot_path):
        if fld != "close":
            raise DataError(f"{spot_path.name}:{line_no}: unknown field {fld!r}")
        date = _parse_date(spot_path, line_no, d)
        price = _parse_float(spot_path, line_no, val)
        if price <= 0:
            raise DataError(f"{spot_path.name}:{line_no}: nonpositive price")
        spot_by_date[date] = price

    futures_by_date: dict = {}
    expiry_by_code: dict = {}
    fut_rows = _parse_quote_file(fut_path)
    for line_no, d, code, fld, val in fut_rows:
        date = _parse_date(fut_path, line_no, d)
        if fld == "expiry":
            expiry_by_code[code] = date
        elif fld == "close":
            price = _parse_float(fut_path, line_no, val)
            if price <= 0:
                raise DataError(f"{fut_path.name}:{line_no}: nonpositive price")
            futures_by_date.setdefault(date, {})[code] = price
        else:
            raise DataError(f"{fut_path.name}:{line_no}: unknown field {fld!r}")
    for line_no, d, code, fld, val in fut_rows:
        if fld == "close" and code not in expiry_by_code:
            raise DataError(
                f"{fut_path.name}:{line_no}: close for contract {code!r} "
                "has no expiry row"
            )

    rate_by_date: dict = {}
    for line_no, d, code, fld, val in _parse_quote_file(rate_path):
        if fld != "rate":
            raise DataError(f"{rate_path.name}:{line_no}: unknown field {fld!r}")
        rate_by_date[_parse_date(rate_path, line_no, d)] = _parse_float(
            rate_path, line_no, val
        )

    candidates = sorted(spot_by_date)
    if window is not None:
        lo = np.datetime64(window[0], "D")
        hi = np.datetime64(window[1], "D")
        candidates = [d for d in candidates if lo <= d <= hi]
    if not candidates:
        raise DataError("no trading days in the requested window")

    # Contracts in expiry order; on each day the settling contracts are
    # [first_settling, first_live) and the front ranks follow first_live.
    by_expiry = sorted((e, c) for c, e in expiry_by_code.items())
    expiries = np.array([e for e, _ in by_expiry], dtype="datetime64[D]")
    cand_arr = np.array(candidates, dtype="datetime64[D]")
    first_settling = np.searchsorted(expiries, cand_arr, side="left").tolist()
    first_live = np.searchsorted(expiries, cand_arr, side="right").tolist()

    dates, spot, rates = [], [], []
    # kept quotes as (row, contract index in by_expiry, price)
    rows, cols, quoted = [], [], []
    n_dropped = n_no_rate = 0
    for date, s0, l0 in zip(candidates, first_settling, first_live):
        quotes = futures_by_date.get(date, {})
        rate = rate_by_date.get(date)
        front = by_expiry[l0 : l0 + n_ranks]
        usable = (
            rate is not None
            and len(front) == n_ranks
            and all(c in quotes for _, c in front)
        )
        if not usable:
            n_dropped += 1
            n_no_rate += rate is None
            continue
        for k in range(s0, l0 + n_ranks):
            code = by_expiry[k][1]
            if k >= l0 or code in quotes:
                rows.append(len(dates))
                cols.append(k)
                quoted.append(quotes[code])
        dates.append(date)
        spot.append(spot_by_date[date])
        rates.append(rate)

    if n_dropped:
        _log.info("dropped %d of %d candidate days for missing data", n_dropped, len(candidates))
    if n_dropped > 0.05 * len(candidates):
        raise DataError(
            f"{n_dropped} of {len(candidates)} days dropped (> 5%); refusing to build a panel"
        )

    dates_arr = np.array(dates, dtype="datetime64[D]")
    used, cols = np.unique(np.array(cols, dtype=np.intp), return_inverse=True)
    prices = np.full((len(dates), used.size), np.nan)
    prices[rows, cols] = quoted
    # weekdays d with date < d <= expiry, in trading years
    one = np.timedelta64(1, "D")
    ttms = np.busday_count(dates_arr[:, None] + one, expiries[used] + one)
    ttms = ttms / TRADING_DAYS_PER_YEAR
    ttms[np.isnan(prices)] = np.nan
    gaps = np.diff(dates_arr) / np.timedelta64(1, "D")
    growth = 1.0 + np.array(rates[:-1]) * gaps / MM_DAY_BASIS
    mm = np.concatenate([[1.0], np.cumprod(growth)])
    return PricePanel(
        dates=dates_arr,
        spot=np.array(spot),
        contracts=np.array([by_expiry[k][1] for k in used]),
        prices=prices,
        ttms=ttms,
        mm_value=mm,
        n_dropped=n_dropped,
        n_dropped_no_rate=n_no_rate,
    )


def euler_path_loop(hist, g, s0, n_days, seed, floor=1e-8):
    """One index path stepped a day at a time in scalars: the Euler
    recursion S' = S + mu (theta - S) dt + g(S) sqrt(dt) Z on the
    ``n_days`` normals of ``default_rng(seed)``, with a step below
    ``floor`` set to it.  Returns the n_days + 1 values and the number
    of clamped steps."""
    z = np.random.default_rng(seed).standard_normal(n_days)
    sqrt_dt = np.sqrt(DT)
    values = [float(s0)]
    n_clamped = 0
    for j in range(n_days):
        s = values[-1]
        s_next = s + hist.mu * (hist.theta - s) * DT + float(g(s)) * sqrt_dt * z[j]
        if s_next < floor:
            s_next = floor
            n_clamped += 1
        values.append(float(s_next))
    return np.array(values), n_clamped


def cir_exact_paths(hist, s0, n_days, n_paths, seed):
    """``n_paths`` paths of ``n_days`` one-day steps (n_days + 1 levels
    each, from ``s0``) drawn from the exact square-root transition:
    S' = c chi'^2(4 mu theta / sigma^2, S e^(-mu dt) / c) with
    c = sigma^2 (1 - e^(-mu dt)) / (4 mu), one noncentral chi-square
    draw per day for all paths."""
    decay = math.exp(-hist.mu * DT)
    c = hist.sigma**2 * (1.0 - decay) / (4.0 * hist.mu)
    df = 4.0 * hist.mu * hist.theta / hist.sigma**2
    rng = np.random.default_rng(seed)
    values = np.empty((n_paths, n_days + 1))
    values[:, 0] = s0
    for j in range(n_days):
        values[:, j + 1] = c * rng.noncentral_chisquare(df, values[:, j] * decay / c)
    return values


def strategy_loop(panel, rule):
    """Day-by-day reference for the two-contract trackers' wealth.

    On each day ``j`` but the last, ``rule(panel, j)`` returns
    ``{column: weight}`` for the contracts held over j -> j+1, and
    wealth moves by the sequential self-financing update
    x' = x M'/M + sum_i (w_i x / f_i)(f_i' - f_i) from x = 100, for
    the panel's money-market values M and M' on days j and j+1.
    Returns the wealth series and the per-day rule outputs.
    """
    wealth = [100.0]
    held = []
    for j in range(panel.n_days - 1):
        weights = rule(panel, j)
        x = wealth[-1]
        pnl = sum(
            w * x / panel.prices[j, c] * (panel.prices[j + 1, c] - panel.prices[j, c])
            for c, w in weights.items()
        )
        wealth.append(x * panel.mm_value[j + 1] / panel.mm_value[j] + pnl)
        held.append(weights)
    return np.array(wealth), held


def futures_panel_from_path(values, n_contracts, rn, r):
    """Every contract priced on every day of one simulated path: the
    full panel that ``SimulatedCurves`` prices only at the held pair.
    Contract k (1-based) matures on day 21 k; expired contracts are NaN
    in ``prices`` and ``ttms``, and the account grows by e^(r dt) a
    day."""
    n = values.size
    last = CYCLE_DAYS * n_contracts
    if n - 1 > last:
        raise ValueError(f"path spans {n - 1} days but the last maturity is day {last}")
    days = np.arange(n)
    maturity_days = CYCLE_DAYS * np.arange(1, n_contracts + 1)
    ttm = (maturity_days[None, :] - days[:, None]) / TRADING_DAYS_PER_YEAR
    spot = values[:, None]
    prices = rn.theta_tilde + (spot - rn.theta_tilde) * np.exp(-rn.mu_tilde * ttm)
    expired = ttm < 0
    prices[expired] = np.nan
    ttm[expired] = np.nan
    return PricePanel(
        dates=days,
        spot=values,
        contracts=np.array([f"C{i + 1:02d}" for i in range(n_contracts)]),
        prices=prices,
        ttms=ttm,
        mm_value=np.exp(r * DT * days),
    )


def _panel_pair(panel, ranks, w1):
    """Wealth of ``w1`` in rank ``ranks[0]`` and the rest in ``ranks[1]``
    of a full panel, by the two-dimensional recursion of one path."""
    cols = rank_columns(panel.ttms, *ranks)
    weights = np.column_stack([w1, 1.0 - w1])
    today = np.take_along_axis(panel.prices[:-1], cols, axis=1)
    tomorrow = np.take_along_axis(panel.prices[1:], cols, axis=1)
    mm = panel.mm_value
    growth = mm[1:] / mm[:-1] + np.sum(weights * (tomorrow / today - 1.0), axis=1)
    return np.cumprod(np.concatenate([[100.0], growth]))


def simulate_loop(values, n_contracts, ranks, beta, r, hist, rn):
    """``simulate``'s trackers one scenario at a time, each on the full
    price panel of its path: the dynamic weight on rank ``ranks[0]``,
    the VXX roll's front weight and the two wealth rows (dynamic, vxx)
    of each row of ``values``, stacked over the rows."""
    out = []
    for row in values:
        panel = futures_panel_from_path(row, n_contracts, rn, r)
        mm = panel.mm_value
        ttm = np.take_along_axis(panel.ttms[:-1], rank_columns(panel.ttms, *ranks), axis=1)
        c = tracking_coefficients(
            panel.spot[:-1], ttm[:, 0], ttm[:, 1], beta, hist, rn, mm[1:] / mm[:-1] - 1.0
        )
        w_dyn, _ = optimal_weight(c)
        front = np.take_along_axis(panel.ttms[:-1], rank_columns(panel.ttms, 1, 2), axis=1)
        days = np.rint(front / DT).astype(int)
        cycle_length = days[:, 1] - days[:, 0]
        w_vxx = 1.0 - (cycle_length - days[:, 0]) / cycle_length
        wealth = [_panel_pair(panel, ranks, w_dyn), _panel_pair(panel, (1, 2), w_vxx)]
        out.append((w_dyn, w_vxx, np.stack(wealth)))
    return tuple(np.stack(column) for column in zip(*out))


def market_price_of_risk(spot, hist, rn, g):
    """Drift adjustment lambda linking historical and risk-neutral dynamics:

        lambda = [mu (theta - S) - mu_tilde (theta_tilde - S)] / g(S).

    Raises ``VolatilitySingularityError`` where g(spot) is zero (e.g.
    spot = 0 under square-root volatility).
    """
    g_val = g(spot)
    if g_val <= 0:
        raise VolatilitySingularityError(
            f"local volatility is {g_val} at spot={spot}; "
            "market price of risk is undefined"
        )
    return (
        hist.mu * (hist.theta - spot) - rn.mu_tilde * (rn.theta_tilde - spot)
    ) / g_val


def dynamic_rule(ranks, beta, hist, rn, g):
    """Per-day optimal weights for tracking ``beta`` times the index
    from the scalar formulas: the market price of risk lambda times each
    contract's shock loading B, for ranks ``ranks[0]`` (w*) and
    ``ranks[1]`` (1 - w*), with the day's cash return read off the
    panel's money-market account."""

    def rule(panel, day):
        c1, c2 = (rank_column(panel, day, rank) for rank in ranks)
        spot = float(panel.spot[day])
        g_val = g(spot)
        b1 = float(b_coefficient(spot, float(panel.ttms[day, c1]), rn, g_val))
        b2 = float(b_coefficient(spot, float(panel.ttms[day, c2]), rn, g_val))
        lam = market_price_of_risk(spot, hist, rn, g)
        a0 = (
            (panel.mm_value[day + 1] / panel.mm_value[day] - 1.0)
            + DT * lam * b2
            - beta * hist.mu * DT * (hist.theta / spot - 1.0)
        )
        a1 = DT * lam * (b1 - b2)
        n0 = math.sqrt(DT) * (b2 - beta * g_val / spot)
        n1 = math.sqrt(DT) * (b1 - b2)
        w = -(a0 * a1 + n0 * n1) / (a1 ** 2 + n1 ** 2)
        return {c1: w, c2: 1.0 - w}

    return rule


def vxx_rule(panel, day, cycle_length=21, dt=DT):
    """Linear roll on a fixed cycle: the front weight is 1 minus the
    elapsed fraction of the cycle, read off the front's days to expiry."""
    c1, c2 = rank_column(panel, day, 1), rank_column(panel, day, 2)
    to_expiry = round(float(panel.ttms[day, c1]) / dt)
    w1 = 1.0 - (cycle_length - to_expiry) / cycle_length
    return {c1: w1, c2: 1.0 - w1}


def exact_one_day_coefficients(spot, t1, t2, beta, r, hist, rn, g_val):
    """Exact (A0, A1, N0, N1) of the discrete-time one-day tracking
    error A0 + A1 w + (N0 + N1 w) z, for weight w on the contract with
    ttm ``t1`` and 1 - w on the one with ttm ``t2``.

    Tomorrow's index is one Euler step S' = S + mu (theta - S) dt +
    g(S) sqrt(dt) z, and tomorrow's futures price is affine in S' with
    slope E_i = e^(-mu_tilde (T_i - dt)), so contract i returns
    f_i'/f_i - 1 = a_i + b_i z with
    a_i = (theta_tilde + (S + mu (theta - S) dt - theta_tilde) E_i - f_i) / f_i
    and b_i = g(S) sqrt(dt) E_i / f_i.  Subtracting beta times the index
    return gives A0 = expm1(r dt) + a_2 - beta mu (theta - S) dt / S,
    A1 = a_1 - a_2, N0 = b_2 - beta g(S) sqrt(dt) / S, N1 = b_1 - b_2.
    """
    drift = hist.mu * (hist.theta - spot) * DT
    a, b = [], []
    for ttm in (t1, t2):
        e = math.exp(-rn.mu_tilde * (ttm - DT))
        f = (spot - rn.theta_tilde) * math.exp(-rn.mu_tilde * ttm) + rn.theta_tilde
        a.append((rn.theta_tilde + (spot + drift - rn.theta_tilde) * e - f) / f)
        b.append(g_val * math.sqrt(DT) * e / f)
    a0 = math.expm1(r * DT) + a[1] - beta * drift / spot
    n0 = b[1] - beta * g_val * math.sqrt(DT) / spot
    return a0, a[0] - a[1], n0, b[0] - b[1]


def grid_min_weight(c, lo=-10.0, hi=10.0, step=1e-4):
    """Brute-force minimizer of (a0+a1 w)^2 + (n0+n1 w)^2 over a grid."""
    w = np.arange(lo, hi + step / 2, step)
    vals = (c.alpha0 + c.alpha1 * w) ** 2 + (c.nu0 + c.nu1 * w) ** 2
    k = int(np.argmin(vals))
    return float(w[k]), float(vals[k])


def simplex_mle(series, z_start=None):
    """scipy's adaptive Nelder-Mead inside ``MLE_BOUNDS`` (clipping every
    vertex into the box) on :func:`neg_avg_loglik_two_routes`, from
    ``z_start`` in (ln mu, ln theta, ln sigma) or else the moment start,
    with the tolerances the library's MLE used for its simplex fallback
    (600 iterations, xatol 1e-8, fatol 1e-12).  Returns scipy's result."""
    series = np.asarray(series, dtype=float)
    if z_start is None:
        init = initial_guess_from_moments(series)
        z_start = np.log([init.mu, init.theta, init.sigma])
    return minimize(
        neg_avg_loglik_two_routes,
        z_start,
        args=(series[1:], series[:-1]),
        method="Nelder-Mead",
        bounds=np.log(MLE_BOUNDS),
        options={"maxiter": 600, "xatol": 1e-8, "fatol": 1e-12, "adaptive": True},
    )


def multistart_mle(series):
    """Best of four :func:`simplex_mle` searches for the square-root MLE:
    the moment start plus three deterministically jittered restarts,
    never returning a point worse than the moment start.  Returns
    (params, avg_loglik)."""
    series = np.asarray(series, dtype=float)
    init = initial_guess_from_moments(series)
    z0 = np.log([init.mu, init.theta, init.sigma])
    rng = np.random.default_rng(20_52_01)
    starts = [z0] + [z0 + rng.normal(0.0, 0.25, size=3) for _ in range(3)]
    best = min((simplex_mle(series, z_start) for z_start in starts), key=lambda res: res.fun)
    f_init = neg_avg_loglik_two_routes(z0, series[1:], series[:-1])
    best_x, best_fun = (z0, f_init) if best.fun > f_init else (best.x, best.fun)
    mu, theta, sigma = np.exp(best_x)
    return HistoricalParams(float(mu), float(theta), float(sigma)), -float(best_fun)


def debye_series_five_polynomials(q, r):
    """The correction P of the five-term Debye expansion (DLMF 10.41) at
    R = r, summed as s (P_1/d_1 + s (P_2/d_2 + ...)) with s = 1/R and
    each P_k by Horner in t^2 = q^2 s^2."""
    s = 1.0 / r
    t2 = q * q * (s * s)
    series = 0.0
    for coeffs, divisor in reversed(_DEBYE_P):
        p_k = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            p_k = c + t2 * p_k
        series = s * (p_k / divisor + series)
    return series


def log_i_debye_five_polynomials(q, x):
    """ln I_q(x) from the five-term Debye expansion, its correction by
    :func:`debye_series_five_polynomials`."""
    r = np.hypot(q, x)
    series = debye_series_five_polynomials(q, r)
    return r - q * np.arcsinh(q / x) - 0.5 * np.log(2.0 * np.pi * r) + np.log1p(series)


def off_expansion_two_routes(order, x):
    """ln I_order(x) for an array of positive x where
    :func:`log_bessel_i_two_routes` does not take the expansion, NaN
    where it does: every entry when every R >= 200 and x >= 1e-8; else
    scipy's ive below R = 200, then the leading term below x = 1e-8 for
    the entries still missing, each on its own subset."""
    from scipy.special import ive

    x = np.asarray(x, dtype=float)
    out = np.full_like(x, np.nan)
    if x.min() >= 1e-8 and math.hypot(order, x.min()) >= 200.0:
        return out
    near = np.hypot(order, x) < 200.0
    with np.errstate(divide="ignore"):
        out[near] = np.log(ive(order, x[near])) + x[near]
    out[~np.isfinite(out)] = np.nan  # where ive underflowed
    small = np.isnan(out) & (x < 1e-8)
    out[small] = order * (np.log(x[small]) - math.log(2.0)) - math.lgamma(order + 1.0)
    return out


def log_bessel_i_two_routes(order, x):
    """ln I_order(x) for an array of positive x: the five-polynomial
    expansion where :func:`off_expansion_two_routes` leaves NaN."""
    out = off_expansion_two_routes(order, x)
    redo = np.isnan(out)
    out[redo] = log_i_debye_five_polynomials(order, np.asarray(x, dtype=float)[redo])
    return out


def neg_avg_loglik_two_routes(z, s_next, s_prev):
    """The library's MLE objective, its non-finite guard included, with
    the CIR density written out on the routes of
    :func:`log_bessel_i_two_routes` and ln s_next taken at every
    evaluation.  Off the expansion the density is summed as written.  On
    it, the terms of size q, -(s' + u)/sig2 + (q/2) ln(s'/u) + R -
    q asinh(q/x), are summed as h/sig2, where they do not cancel:
    h = 2c (ln(1 + eps) - eps) - u eps^2 with c = sig2 q / 2,
    rho = sqrt(c^2 + s' u) and 1 + eps = s' / (c + rho), taken as
    eps = s' (gap + sig2) / ((s' - c + rho)(c + rho)) from the gap
    between s' and its conditional mean theta (1 - e^(-mu dt)) + u
    (and c + rho as s' u / (rho - c) for c < 0); the rest of ln I_q(x)
    is -ln(2 pi R)/2 + ln(1 + P)."""
    mu, theta, sigma = np.exp(z)
    q = 2.0 * mu * theta / sigma**2 - 1.0
    decay = math.exp(-mu * DT)
    sig2 = sigma**2 * (1.0 - decay) / (2.0 * mu)
    u = s_prev * decay
    arg = 2.0 * np.sqrt(s_next * u) / sig2
    log_i = off_expansion_two_routes(q, arg)
    log_f = (
        -math.log(sig2)
        - (s_next + u) / sig2
        + 0.5 * q * (np.log(s_next) - np.log(u))
        + log_i
    )
    debye = np.isnan(log_i)
    with np.errstate(all="ignore"):  # a non-finite value is caught below
        c = 0.5 * sig2 * q
        rho = np.sqrt(c * c + s_next * u)
        c_plus_rho = c + rho if c >= 0 else s_next * u / (rho - c)
        gap = (s_next - s_prev) - (s_prev - theta) * math.expm1(-mu * DT)
        eps = s_next * (gap + sig2) / ((s_next - c + rho) * c_plus_rho)
        large = (2.0 * c * (np.log1p(eps) - eps) - u * eps * eps) / sig2
        r = np.hypot(q, arg)
        series = debye_series_five_polynomials(q, r)
        on_debye = large - math.log(sig2) - 0.5 * np.log(2.0 * np.pi * r) + np.log1p(series)
    log_f[debye] = on_debye[debye]
    val = np.mean(log_f)
    return -float(val) if np.isfinite(val) else _PENALTY


def mle_two_routes(series):
    """The library's gradient search (``calibrate._bfgs_in_box`` inside
    ``MLE_BOUNDS`` from the moment start) on
    :func:`neg_avg_loglik_two_routes` and the library's score; returns
    its end point, value, iterations and evaluations as scipy's result
    fields ``x``, ``fun``, ``nit`` and ``nfev``."""
    series = np.asarray(series, dtype=float)
    s_next, s_prev = series[1:], series[:-1]
    init = initial_guess_from_moments(series)

    def value_and_score(z):
        score = _neg_avg_loglik_and_score(z, s_next, np.log(s_next), s_prev)[1]
        return neg_avg_loglik_two_routes(z, s_next, s_prev), score

    z0 = np.log([init.mu, init.theta, init.sigma])
    z, f, _, nit, nfev = _bfgs_in_box(value_and_score, z0, np.log(MLE_BOUNDS))
    return OptimizeResult(x=z, fun=f, nit=nit, nfev=nfev)


def kkt_weights(columns, target):
    """Solve min ||C w - d||^2 s.t. sum(w)=1 via the dense bordered
    (indefinite) KKT system."""
    c = np.asarray(columns, dtype=float)
    d = np.asarray(target, dtype=float)
    k = c.shape[1]
    system = np.zeros((k + 1, k + 1))
    system[:k, :k] = 2.0 * c.T @ c
    system[:k, k] = 1.0
    system[k, :k] = 1.0
    rhs = np.concatenate([2.0 * c.T @ d, [1.0]])
    return np.linalg.solve(system, rhs)[:k]


def mp_log_i_half_integer(n_half: int, x: float) -> float:
    """ln I_{n_half + 1/2}(x) from the terminating closed forms, in
    40-digit arithmetic."""
    from mpmath import mp, mpf, sqrt, pi, sinh, cosh, log

    mp.dps = 40
    xm = mpf(repr(float(x)))
    pref = sqrt(2 / (pi * xm))
    if n_half == 0:
        val = pref * sinh(xm)
    elif n_half == 1:
        val = pref * (cosh(xm) - sinh(xm) / xm)
    elif n_half == 2:
        val = pref * ((1 + 3 / xm**2) * sinh(xm) - 3 * cosh(xm) / xm)
    else:
        raise ValueError("closed forms wired up for orders 1/2, 3/2, 5/2 only")
    return float(log(val))


def mp_large_terms(s_next, s_prev, hist, dt):
    """The CIR log density's terms of size q, -(s' + u)/sig2 +
    (q/2) ln(s'/u) + R - q asinh(q/x), entry by entry, in 60-digit
    arithmetic from (mu, theta, sigma) and the step dt."""
    from mpmath import mp, mpf, asinh, exp, log, sqrt

    mp.dps = 60
    mu, theta, sigma = mpf(hist.mu), mpf(hist.theta), mpf(hist.sigma)
    q = 2 * mu * theta / sigma**2 - 1
    decay = exp(-mu * mpf(dt))
    sig2 = sigma**2 * (1 - decay) / (2 * mu)
    out = []
    for a, b in zip(s_next, s_prev):
        a, u = mpf(float(a)), mpf(float(b)) * decay
        x = 2 * sqrt(a * u) / sig2
        out.append(-(a + u) / sig2 + q / 2 * log(a / u) + sqrt(q * q + x * x) - q * asinh(q / x))
    return np.array([float(v) for v in out])


def mp_log_i(order: float, x: float) -> float:
    """ln I_order(x) from mpmath's series, in 40-digit arithmetic."""
    from mpmath import mp, mpf, besseli, log

    mp.dps = 40
    return float(log(besseli(mpf(order), mpf(repr(float(x))), maxterms=10**7)))


def mp_log_i_partials(order: float, x: float):
    """d/d order and x d/dx of ln I_order(x), by mpmath's numerical
    differentiation of its series, in 40-digit arithmetic."""
    from mpmath import mp, mpf, besseli, diff, log

    mp.dps = 40
    q, xm = mpf(order), mpf(repr(float(x)))
    log_i = lambda qq, xx: log(besseli(qq, xx, maxterms=10**7))
    d_q = diff(lambda qq: log_i(qq, xm), q)
    x_d_x = xm * diff(lambda xx: log_i(q, xx), xm)
    return float(d_q), float(x_d_x)


def grid_min_mom_loss(observations, mu_grid, theta_grid):
    """Brute-force scan of the moment-fit loss over a (mu_tilde,
    theta_tilde) grid: (mu index, theta index, loss) of its minimum.

    The loss is summed day by day from the raw (spot, quotes) pairs,
    each day's squared errors weighted 1/(2 N_j n)."""
    n = len(observations)
    mu = np.asarray(mu_grid, dtype=float)[:, None, None]
    theta = np.asarray(theta_grid, dtype=float)[None, :, None]
    loss = np.zeros((mu.size, theta.size))
    for spot, quotes in observations:
        ttm, price = (np.array(v, dtype=float) for v in zip(*quotes))
        fitted = (spot - theta) * np.exp(-mu * ttm) + theta
        loss += np.sum((fitted - price) ** 2, axis=2) / (2.0 * len(quotes) * n)
    i, k = np.unravel_index(int(np.argmin(loss)), loss.shape)
    return int(i), int(k), float(loss[i, k])


# ln I_9.068(500) by 40-digit quadrature of the integral representation
#   I_q(x) = (1/pi) int_0^pi e^{x cos t} cos(q t) dt
#            - sin(q pi)/pi int_0^inf e^{-x cosh s - q s} ds
# (regen: tests/test_calibrate.py::test_log_bessel_quadrature_oracle)
LOG_I_9068_500 = 495.89169890396747417

# Extended-precision closed-form evaluations at the fitted parameter
# point (mu, theta, sigma) = (10.86, 18.81, 6.37),
# (mu_tilde, theta_tilde) = (1.39, 26.03):
FUTURES_PRICE_1M_LOW_SPOT = 19.59969725997370895  # spot 18.81, ttm 1/12
LAMBDA_AT_THETA = -0.36326049275076672053  # spot = theta
B_COEFF_21D = 1.2553900708401820453  # spot 18.81, ttm 21/252, g = 6.37*sqrt(18.81)
CRITICAL_SPOT_R005 = 25.126093998856853529  # beta 1, r 0.05, dt 1/252
FELLER_ORDER = 9.0686153944732101269  # 2*mu*theta/sigma^2 - 1

# Tracking coefficients at day 0, spot = theta, ranks (1, 2), beta = 1,
# r = 0.01 on the 21-day monthly grid:
COEFFS_DAY0 = (
    -0.0015162079748142536196,  # alpha0
    -0.00025376590340995877833,  # alpha1
    -0.024529393063679174755,  # nu0
    0.011089586977646441495,  # nu1
)
W_STAR_DAY0 = 2.2076455645492047569
