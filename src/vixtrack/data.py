"""Ingestion of spot/futures/rate quote files into a dense price panel.

Input format: delimited text, one file per instrument family, all with
the header ``date,code,field,value``:

* ``spot.csv``    -- rows ``<date>,<index code>,close,<price>``
* ``futures.csv`` -- rows ``<date>,<contract>,close,<price>`` plus one
  ``<expiry date>,<contract>,expiry,`` row per contract
* ``rates.csv``   -- rows ``<date>,<code>,rate,<annual rate>``

A date is a day from 1000-01-01 to 9999-12-31 (:func:`is_date`),
written ``YYYY-MM-DD``; the CLI's date flags follow the same rule.
numpy reads a compact ``20210104`` as the year 20,210,104, so each
converted date's range is checked, not its text; a partial date
(``2021``, ``2021-01``) still reads as its first day.

Each file is parsed by column: its rows are split into four text
columns at once, each column is converted in one call, and each check
runs over a whole column and names the file and line of its first
failing row.  Besides a malformed row, a repeated one is an error: a
second spot close or rate for a date, close for a date and contract, or
expiry row for a contract.  So is a futures close for a contract with
no expiry row.

A :class:`PricePanel` is the market of quoted prices: per trading day
the spot level and a compounded money-market account, plus ``n_days x
n_contracts`` matrices of futures prices and times to maturity (in
trading years), one column per contract in expiry order.  An entry is
NaN wherever the contract has no quote that day, so rank r on day j is
the r-th column with a positive ttm (:func:`rank_columns`).  The
account is the one source of the risk-free rate: the static fit's cash
column and the trackers' cash leg both read it.

A position in rank r holds one contract at a time.  It rolls at each
cycle boundary (when the front settles and every contract moves up one
rank) into the contract now occupying the rank, or early, on the held
contract's last quoted day, when its quotes stop before its settlement
day (common in ingested data).  Either way the new contract must be the
next one by expiry, quoted on the roll day.  The one schedule of these
rolls is :meth:`PricePanel.held`, the rank's held leg: the contract, its
ttm and its prices over each day.  The simulated market has a ``held``
of its own (:class:`~vixtrack.simulate.SimulatedCurves`), and the
rolled series and the trackers' held pair read either one.

A loaded panel keeps, per day, the contract settling that day when it
is quoted plus the front ``n_ranks`` contracts: the first ``n_ranks``
contracts by expiry that expire after that day, so rank r is always
the r-th contract by expiry.  Its ttms are trading-day counts to
expiry over 252.  The overnight rate only compounds the account,
ACT/360 from each kept day's rate to the next kept day.  Days missing
the rate or the close of a front contract are dropped, with a logged
count per reason; more than ``MAX_DROP_FRAC`` of the days dropped is an
error.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, require
from .model import TRADING_DAYS_PER_YEAR

__all__ = ["PricePanel", "rank_columns", "load_panel", "split_day"]

log = logging.getLogger(__name__)

# Overnight money-market compounding: simple interest, ACT/360.
MM_DAY_BASIS = 360.0

# A contract whose quotes stop while it still has more than this long
# to run has a data gap, not an imminent settlement.
_SETTLEMENT_WINDOW = 3.0 / TRADING_DAYS_PER_YEAR

# The largest fraction of the candidate days the loader may drop for
# missing data.  Being below 1, it also refuses a window with no usable day.
MAX_DROP_FRAC = 0.05

# The first and last date of the input format: the four-digit years.
DATE_RANGE = np.array(["1000-01-01", "9999-12-31"], dtype="datetime64[D]")


def is_date(days) -> np.ndarray:
    """Where ``days`` (``datetime64[D]``) are dates of the input format:
    within ``DATE_RANGE``, so not NaT."""
    return (days >= DATE_RANGE[0]) & (days <= DATE_RANGE[1])


@dataclass
class PricePanel:
    """Date-aligned spot, futures curve, and money-market data.

    ``mm_value`` is the money-market account's value on each day; its
    day-to-day ratio is the cash return earned over that day.
    ``dates`` is an array of ``datetime64[D]`` for loaded quotes (a
    hand-built panel may use day indices).  ``contracts`` holds one id
    per column of ``prices`` and ``ttms``, in expiry order; both
    matrices are NaN where a contract has no quote, and nowhere else:
    each price is paired with a ttm, which construction enforces.  A
    contract on its final settlement day (ttm = 0) is included when
    quoted; ranks count only contracts with ttm > 0.  So a contract
    with no quote on a day is not live that day.  ``n_dropped`` counts
    the candidate days the loader dropped, ``n_dropped_no_rate`` those
    of them with no rate; the rest miss a front close.

    Raises
    ------
    ValueError
        If ``prices`` or ``ttms`` is not days x contracts.
    DataError
        Naming the first day and contract with a price and no ttm, or a
        ttm and no price; or if a day's quoted ttms decrease from one
        column to the next, i.e. the columns are not in expiry order.
    """

    dates: np.ndarray
    spot: np.ndarray
    contracts: np.ndarray
    prices: np.ndarray
    ttms: np.ndarray
    mm_value: np.ndarray
    n_dropped: int = 0
    n_dropped_no_rate: int = 0

    def __post_init__(self):
        shape = (self.spot.size, self.contracts.size)
        if self.prices.shape != shape or self.ttms.shape != shape:
            raise ValueError(
                f"prices {self.prices.shape} and ttms {self.ttms.shape} "
                f"must be days x contracts {shape}"
            )
        unpaired = np.flatnonzero(np.isnan(self.prices) != np.isnan(self.ttms))
        if unpaired.size:
            day, k = divmod(int(unpaired[0]), shape[1])
            has, lacks = ("ttm", "price") if np.isnan(self.prices[day, k]) else ("price", "ttm")
            raise DataError(f"contract {self.contracts[k]} has a {has} but no {lacks} on day {day}")
        # each quoted ttm against the largest quoted ttm to its left
        before = np.fmax.accumulate(self.ttms, axis=1)[:, :-1]
        disordered = np.flatnonzero((self.ttms[:, 1:] < before).any(axis=1))
        if disordered.size:
            raise DataError(f"contracts on day {disordered[0]} are not in expiry order")

    @property
    def n_days(self) -> int:
        return self.spot.size

    def held(self, rank: int) -> tuple:
        """The contract that maturity rank ``rank`` holds over each day
        j -> j+1, rolling as the module docstring says: its id, its ttm
        on day j and its prices on days j and j+1, each (n_days - 1,),
        and how many of its rolls came early.

        The rank rolls early on day d exactly when its contract of day d
        has no quote on day d + 1.  With A the rank's column and e(d)
        the early rolls, the position holds A[d - 1] + e(d - 1) into
        day d and rolls where A moves off it or early.

        Raises
        ------
        DataError
            If the rank is missing on a day before the last, skips a
            contract, or holds one whose quotes stop far from its
            settlement, or a contract it needs has no quote.  Of several
            faults at rolls, the one on the earliest day is named.
        """
        n, ids, prices, ttms = self.n_days, self.contracts, self.prices, self.ttms
        col = rank_columns(ttms, rank)[:, 0]
        early = np.isnan(prices[np.arange(1, n), col])
        after = col + early  # the contract held from day d into day d + 1
        held = np.concatenate([col[:1], after[:-1]])
        rolls = np.flatnonzero((col != held) | early)

        # every roll checked at once; the first fault by day is named: a
        # roll's own, then a gap on the day after it, then the next roll's
        out = held[rolls]
        into = out + 1
        last = ids.size - 1
        moved = col[rolls] != out
        skipped = moved & (col[rolls] != into)
        far = ~moved & (ttms[rolls, np.minimum(out, last)] > _SETTLEMENT_WINDOW)
        unbuyable = (into > last) | np.isnan(prices[rolls, np.minimum(into, last)])
        unmarked = np.isnan(prices[rolls + 1, np.minimum(into, last)])
        fault = np.flatnonzero(skipped | far | unbuyable | unmarked)
        if fault.size:
            k = fault[0]
            day, gone = rolls[k], ids[out[k]]
            if skipped[k]:
                raise DataError(
                    f"rank {rank} moved from {gone} to {ids[col[day]]} on day {day}, "
                    "not to the next contract by expiry; quote gap in the panel"
                )
            if far[k]:
                raise DataError(
                    f"held contract {gone} has no quote on day {day + 1} "
                    f"but is far from settlement; quote gap in the panel"
                )
            if unbuyable[k]:
                raise DataError(
                    f"no quote on day {day} for the contract after {gone}, "
                    "which the position rolls into"
                )
            raise DataError(f"held contract {ids[into[k]]} has no quote on day {day + 1}")
        days = np.arange(n - 1)
        ttm, today, tomorrow = ttms[days, after], prices[days, after], prices[days + 1, after]
        return ids[after], ttm, today, tomorrow, int(early.sum())

    def observations(self) -> tuple:
        """The live quotes (ttm > 0) as flat arrays, day by day and in
        expiry order within a day, as the risk-neutral curve fit reads
        them: (spot, ttm, price, weight) per quote.  Each quote of
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
        return self.spot[days], self.ttms[live], self.prices[live], weights


def rank_columns(ttms: np.ndarray, *ranks: int) -> np.ndarray:
    """Column of the ``rank``-th contract with ttm > 0 (1 = front) in a
    days x contracts matrix of ttms in expiry order, for each requested
    rank, on each day but the last: the days a position can be opened.
    Shape (n_days - 1, len(ranks)).

    Rank r on a day is that day's r-th live entry of the flattened
    matrix; one search finds where each day's entries start.

    Raises
    ------
    DataError
        If a rank is below 1 or, naming the first such day, fewer
        contracts than the largest rank are tradable.
    """
    if min(ranks) < 1:
        raise DataError(f"rank {min(ranks)} not available: ranks are 1-based")
    live = ttms[:-1] > 0
    entries = np.flatnonzero(live)
    starts = np.searchsorted(entries, np.arange(live.shape[0] + 1) * live.shape[1])
    short = np.flatnonzero(np.diff(starts) < max(ranks))
    if short.size:
        raise DataError(f"rank {max(ranks)} not available on day {short[0]}")
    return entries[starts[:-1, None] + (np.array(ranks) - 1)] % live.shape[1]


def _check(path: Path, line_nos, bad, message) -> None:
    """Raise a DataError naming the line of the first row flagged in
    ``bad``, with the text ``message(row)``."""
    rows = np.flatnonzero(bad)
    if rows.size:
        raise DataError(f"{path.name}:{line_nos[rows[0]]}: {message(rows[0])}")


def _read_rows(path: Path, fields: tuple) -> tuple:
    """Line numbers, dates (``datetime64[D]``), then the code and value
    columns (as object arrays of text) of a quote file's rows, and one
    row mask per name in ``fields``.  The rows are every line but blank
    ones, ``#`` comments and a ``date,`` header on line 1.  Checked in
    this order: the file exists, each row has 4 fields, a field in
    ``fields`` and a valid date."""
    if not path.exists():
        raise DataError(f"missing input file {path}")
    lines = list(map(str.strip, path.read_text(encoding="utf-8-sig").split("\n")))
    if lines[0].lower().startswith("date,"):
        lines[0] = ""
    kept = [n for n, line in enumerate(lines, 1) if line and line[0] != "#"]
    texts = [lines[n - 1] for n in kept]
    line_nos = np.array(kept, dtype=np.intp)
    widths = np.array(list(map(str.count, texts, [","] * len(texts))), dtype=np.intp) + 1
    _check(path, line_nos, widths != 4, lambda i: f"expected 4 fields, got {widths[i]}")
    cells = ",".join(texts).split(",") if texts else []
    dates, codes, kinds, values = np.array(cells, dtype=object).reshape(-1, 4).T
    masks = [kinds == field for field in fields]
    _check(path, line_nos, ~np.logical_or.reduce(masks), lambda i: f"unknown field {kinds[i]!r}")
    return line_nos, _convert(path, line_nos, dates, "date"), codes, values, *masks


def _convert(path: Path, line_nos, texts, kind: str) -> np.ndarray:
    """``texts`` as dates (``kind`` "date", see :func:`is_date`) or
    finite numbers, converted in one call; only when that fails are the
    rows walked, to name the first that does not convert."""
    dtype = "datetime64[D]" if kind == "date" else float
    try:
        values = texts.astype(dtype)
    except ValueError:
        for line_no, text in zip(line_nos, texts):
            try:
                np.array(text, dtype=dtype)
            except ValueError:
                raise DataError(f"{path.name}:{line_no}: bad {kind} {text!r}") from None
        raise
    bad = ~is_date(values) if kind == "date" else ~np.isfinite(values)
    what = "bad date" if kind == "date" else "non-finite value"
    _check(path, line_nos, bad, lambda i: f"{what} {texts[i]!r}")
    return values


def _check_unique(path: Path, line_nos, keys: np.ndarray, what) -> None:
    """Raise a DataError naming the first row to repeat an earlier row's key, and both lines."""
    order = np.argsort(keys, kind="stable")
    repeat = np.zeros(keys.size, dtype=bool)
    repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    _check(
        path, line_nos, repeat,
        lambda i: f"duplicate {what(i)} (first on line {line_nos[np.argmax(keys == keys[i])]})",
    )


def _read_series(path: Path, field: str) -> tuple:
    """Line numbers, dates and values of a file of one ``field`` row per date."""
    line_nos, dates, _, values, _ = _read_rows(path, (field,))
    values = _convert(path, line_nos, values, "number")
    _check_unique(path, line_nos, dates, lambda i: f"{field} for {dates[i]}")
    return line_nos, dates, values


def load_panel(data_dir, window=None, n_ranks: int = 7) -> PricePanel:
    """Load and align quote files from ``data_dir``.

    Each file is parsed by column (see the module docstring).  The
    closes of the candidate days (the spot dates within ``window``) go
    into one day x contract matrix, from which the usable days, kept
    columns, ttms and account follow by array operations.

    Parameters
    ----------
    data_dir : path-like
        Directory holding spot.csv, futures.csv and rates.csv.
    window : (start, end) of date-like, optional
        Inclusive date range to keep.
    n_ranks : int
        Number of front contracts a day needs the closes of (see the
        module docstring); contracts beyond them are not kept.

    Raises
    ------
    DataError
        On a missing input file; naming the file and line, on a
        malformed or repeated row or a futures ``close`` for a contract
        with no ``expiry`` row; naming spot.csv (and ``window``, when
        given), when no spot close is left; or when more than
        ``MAX_DROP_FRAC`` of the candidate days are dropped for missing
        data (no rate or a missing front-``n_ranks`` close).
    """
    spot_path, fut_path, rate_path = (
        Path(data_dir) / name for name in ("spot.csv", "futures.csv", "rates.csv")
    )

    spot_lines, spot_dates, spot_values = _read_series(spot_path, "close")
    _check(spot_path, spot_lines, spot_values <= 0, lambda i: "nonpositive price")

    line_nos, dates, codes, values, is_close, is_expiry = _read_rows(fut_path, ("close", "expiry"))
    close_lines, close_codes, close_dates = line_nos[is_close], codes[is_close], dates[is_close]
    prices = _convert(fut_path, close_lines, values[is_close], "number")
    _check(fut_path, close_lines, prices <= 0, lambda i: "nonpositive price")
    # contracts in expiry order, ties by code
    names, expiries = codes[is_expiry].astype(str), dates[is_expiry]
    _check_unique(
        fut_path, line_nos[is_expiry], names, lambda i: f"expiry row for contract {str(names[i])!r}"
    )
    order = np.lexsort((names, expiries))
    names, expiries = names[order], expiries[order]
    column = dict(zip(names.tolist(), range(names.size)))
    close_cols = np.array(list(map(column.get, close_codes, [-1] * close_codes.size)))
    _check(
        fut_path, close_lines, close_cols < 0,
        lambda i: f"close for contract {close_codes[i]!r} has no expiry row",
    )
    _check_unique(
        fut_path, close_lines, close_dates.astype(np.int64) * names.size + close_cols,
        lambda i: f"close for contract {close_codes[i]!r} on {close_dates[i]}",
    )

    _, rate_dates, rate_values = _read_series(rate_path, "rate")

    order = np.argsort(spot_dates)
    days, spot = spot_dates[order], spot_values[order]
    if window is not None:
        inside = (days >= np.datetime64(window[0], "D")) & (days <= np.datetime64(window[1], "D"))
        days, spot = days[inside], spot[inside]
    if not days.size:
        within = "" if window is None else f" from {window[0]} to {window[1]}"
        raise DataError(f"{spot_path.name}: no closes{within}")

    rate = np.full(days.size, np.nan)
    held = np.isin(rate_dates, days)
    rate[np.searchsorted(days, rate_dates[held])] = rate_values[held]
    closes = np.full((days.size, names.size), np.nan)
    held = np.isin(close_dates, days)
    closes[np.searchsorted(days, close_dates[held]), close_cols[held]] = prices[held]
    # a day's settling columns are [first_settling, first_live); its front ones follow
    first_settling = np.searchsorted(expiries, days, side="left")[:, None]
    first_live = np.searchsorted(expiries, days, side="right")[:, None]
    k, quoted = np.arange(names.size), ~np.isnan(closes)
    in_front = quoted & (k >= first_live) & (k < first_live + n_ranks)
    has_front = np.count_nonzero(in_front, axis=1) == n_ranks
    has_rate = ~np.isnan(rate)
    usable = has_rate & has_front
    n_dropped = int(days.size - np.count_nonzero(usable))
    no_rate = int(np.count_nonzero(~has_rate))

    reasons = f"{no_rate} with no rate, {n_dropped - no_rate} more missing a front close"
    if n_dropped:
        log.info(
            "dropped %d of %d candidate days for missing data: %s", n_dropped, days.size, reasons
        )
    if n_dropped > MAX_DROP_FRAC * days.size:
        raise DataError(
            f"{n_dropped} of {days.size} days dropped (> {MAX_DROP_FRAC:.0%}): {reasons} "
            f"of {n_ranks} ranks; refusing to build a panel"
        )

    # the quoted settling contracts and the front ranks of each usable day
    kept = (quoted & (k >= first_settling) & (k < first_live + n_ranks))[usable]
    used = np.flatnonzero(kept.any(axis=0))
    prices = np.where(kept, closes[usable], np.nan)[:, used]
    dates_arr = days[usable]
    # weekdays d with date < d <= expiry, in trading years, as a difference of
    # counts from the first day: exact where expiry >= date, as for every kept quote
    one = np.timedelta64(1, "D")
    to_expiry = np.busday_count(dates_arr[0], expiries[used] + one)
    to_day = np.busday_count(dates_arr[0], dates_arr + one)
    ttms = (to_expiry[None, :] - to_day[:, None]) / TRADING_DAYS_PER_YEAR
    ttms[np.isnan(prices)] = np.nan
    gaps = np.diff(dates_arr) / np.timedelta64(1, "D")
    growth = 1.0 + rate[usable][:-1] * gaps / MM_DAY_BASIS
    return PricePanel(
        dates=dates_arr,
        spot=spot[usable],
        contracts=np.array(names[used].tolist()),
        prices=prices,
        ttms=ttms,
        mm_value=np.concatenate([[1.0], np.cumprod(growth)]),
        n_dropped=n_dropped,
        n_dropped_no_rate=no_rate,
    )


def split_day(panel: PricePanel, boundary) -> int:
    """First out-of-sample day of a split at a boundary date: in-sample
    strictly before, out-of-sample from the boundary on.

    Raises
    ------
    DataError
        If either window would have fewer than 2 days: a one-day window
        rebased to 100 is matched by any portfolio and has no return.
    """
    cut = int(np.searchsorted(panel.dates, np.datetime64(boundary, "D"), side="left"))
    if not 2 <= cut <= panel.n_days - 2:
        raise DataError(
            f"boundary {boundary} leaves {cut} in-sample and {panel.n_days - cut} "
            f"out-of-sample days of the panel window [{panel.dates[0]}, {panel.dates[-1]}]; "
            "each window needs at least 2"
        )
    return cut
