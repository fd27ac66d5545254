"""Ingestion of spot/futures/rate quote files into a dense price panel.

Input format: delimited text, one file per instrument family, all with
the header ``date,code,field,value``:

* ``spot.csv``    -- rows ``<date>,<index code>,close,<price>``
* ``futures.csv`` -- rows ``<date>,<contract>,close,<price>`` plus one
  ``<expiry date>,<contract>,expiry,`` row per contract
* ``rates.csv``   -- rows ``<date>,<code>,rate,<annual rate>``

A :class:`PricePanel` is the one market type of the package, for
loaded quotes and simulated curves alike: per trading day the spot
level and a compounded money-market account, plus ``n_days x
n_contracts`` matrices of futures prices and times to maturity (in
trading years), one column per contract in expiry order.  An entry is
NaN wherever the contract has no quote that day, so rank r on day j is
the r-th column with a positive ttm.  The account is the one source of
the risk-free rate: the static fit's cash column and the trackers'
cash leg both read it.

A loaded panel keeps, per day, the contract settling that day when it
is quoted plus the front ``n_ranks`` contracts: the first ``n_ranks``
contracts, in expiry order (from the ``expiry`` rows), that expire
after that day, so rank r is always the r-th contract by expiry.  Its
ttms are actual trading-day counts to expiry over 252.  The overnight
rate is not kept: it only compounds the account, ACT/360 from each
kept day's rate to the next kept day.  Days missing the spot, the rate
or the close of any of those front contracts are dropped with a logged
count.  A futures ``close`` row for a contract without an ``expiry``
row is an error.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, require
from .model import TRADING_DAYS_PER_YEAR

__all__ = [
    "PricePanel",
    "load_panel",
    "split_day",
]

log = logging.getLogger(__name__)

# Overnight money-market compounding: simple interest, ACT/360.
MM_DAY_BASIS = 360.0


@dataclass
class PricePanel:
    """Date-aligned spot, futures curve, and money-market data.

    ``mm_value`` is the money-market account's value on each day; its
    day-to-day ratio is the cash return earned over that day.
    ``dates`` is either an array of ``datetime64[D]`` (ingested data) or
    integer day indices (simulated data).  ``contracts`` holds one id
    per column of ``prices`` and ``ttms``, in expiry order; both
    matrices are NaN where a contract has no quote.  A contract on its
    final settlement day (ttm = 0) is included when quoted; ranks count
    only contracts with ttm > 0.

    Raises
    ------
    ValueError
        If ``prices`` or ``ttms`` is not days x contracts.
    DataError
        If a day's quoted ttms decrease from one column to the next,
        i.e. the columns are not in expiry order.
    """

    dates: np.ndarray
    spot: np.ndarray
    contracts: np.ndarray
    prices: np.ndarray
    ttms: np.ndarray
    mm_value: np.ndarray
    n_dropped: int = 0

    def __post_init__(self):
        shape = (self.spot.size, self.contracts.size)
        if self.prices.shape != shape or self.ttms.shape != shape:
            raise ValueError(
                f"prices {self.prices.shape} and ttms {self.ttms.shape} "
                f"must be days x contracts {shape}"
            )
        # each quoted ttm against the largest quoted ttm to its left
        before = np.fmax.accumulate(self.ttms, axis=1)[:, :-1]
        disordered = np.flatnonzero((self.ttms[:, 1:] < before).any(axis=1))
        if disordered.size:
            raise DataError(
                f"contracts on day {disordered[0]} are not in expiry order"
            )

    @property
    def n_days(self) -> int:
        return self.spot.size

    def slice(self, start: int, stop: int) -> "PricePanel":
        """Row-range view [start, stop) as a new panel."""
        return PricePanel(
            dates=self.dates[start:stop],
            spot=self.spot[start:stop],
            contracts=self.contracts,
            prices=self.prices[start:stop],
            ttms=self.ttms[start:stop],
            mm_value=self.mm_value[start:stop],
            n_dropped=self.n_dropped,
        )

    def rank_columns(self, *ranks: int) -> np.ndarray:
        """Column of the ``rank``-th contract with ttm > 0 (1 = front),
        for each requested rank, on each day but the last: the days a
        position can be opened.  Shape (n_days - 1, len(ranks)).

        Raises
        ------
        DataError
            If a rank is below 1 or, naming the first such day, fewer
            contracts than the largest rank are tradable.
        """
        live = np.cumsum(self.ttms[:-1] > 0, axis=1)
        if min(ranks) < 1:
            raise DataError(f"rank {min(ranks)} not available: ranks are 1-based")
        short = np.flatnonzero(live[:, -1] < max(ranks))
        if short.size:
            raise DataError(f"rank {max(ranks)} not available on day {short[0]}")
        # columns are in expiry order, so rank r is where the count reaches r
        return np.stack([np.argmax(live >= r, axis=1) for r in ranks], axis=1)

    def observations(self) -> tuple:
        """The live quotes (ttm > 0) as flat arrays, day by day and in
        expiry order within a day, as the risk-neutral curve fit reads
        them: (spot, ttm, price, weight, day) per quote.  Each quote of
        day j weighs 1/(2 N_j n), for N_j live quotes that day and n
        days.

        Raises
        ------
        ValueError
            If the panel has no days or, naming the first, a day has no
            live quote.
        """
        live = self.ttms > 0
        per_day = live.sum(axis=1)
        if per_day.size == 0:
            raise ValueError("empty observation set")
        require(per_day > 0, ValueError, "no live quote")
        days = np.nonzero(live)[0]
        weights = 1.0 / (2.0 * per_day[days] * self.n_days)
        return self.spot[days], self.ttms[live], self.prices[live], weights, days


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


def load_panel(
    data_dir,
    window=None,
    n_ranks: int = 7,
    max_drop_frac: float = 0.05,
) -> PricePanel:
    """Load and align quote files from ``data_dir``.

    Parameters
    ----------
    data_dir : path-like
        Directory holding spot.csv, futures.csv and rates.csv.
    window : (start, end) of date-like, optional
        Inclusive date range to keep.
    n_ranks : int
        Number of front contracts required per day.  They are the first
        ``n_ranks`` contracts by expiry (from the ``expiry`` rows) that
        expire after the day; a day missing the close of any of them is
        dropped.  Contracts beyond this rank are dropped on load; a
        contract settling on the day is kept when quoted.
    max_drop_frac : float
        Abort when more than this fraction of candidate days has to be
        dropped for missing data: no rate or a missing front-``n_ranks``
        close.

    Raises
    ------
    DataError
        On a missing input file, a malformed row, a futures ``close``
        for a contract with no ``expiry`` row (naming the file, line and
        contract), or too many dropped days.
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
    n_dropped = 0
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
        log.info("dropped %d of %d candidate days for missing data", n_dropped, len(candidates))
    if n_dropped > max_drop_frac * len(candidates):
        raise DataError(
            f"{n_dropped} of {len(candidates)} days dropped "
            f"(> {max_drop_frac:.0%}); refusing to build a panel"
        )
    if not dates:
        raise DataError("no usable trading days after alignment")

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
    )


def split_day(panel: PricePanel, boundary) -> int:
    """First out-of-sample day of a split at a boundary date (or day
    index for simulated panels): in-sample strictly before, out-of-sample
    from the boundary on.

    Raises
    ------
    DataError
        If either window would be empty.
    """
    if np.issubdtype(panel.dates.dtype, np.integer):
        b = int(boundary)
    else:
        b = np.datetime64(boundary, "D")
    if not (panel.dates[0] < b <= panel.dates[-1]):
        raise DataError(
            f"boundary {boundary} outside the panel window "
            f"[{panel.dates[0]}, {panel.dates[-1]}]"
        )
    return int(np.searchsorted(panel.dates, b, side="left"))
