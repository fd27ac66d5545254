import codecs
import dataclasses
import logging
import re

import numpy as np
import pytest

from vixtrack import DataError, load_panel, split_day
from vixtrack.model import TRADING_DAYS_PER_YEAR

from conftest import grid_panel, make_sim_panels, weekday_dates, write_quote_files
import oracles


def rank_contract(panel, day, rank):
    return panel.contracts[oracles.rank_column(panel, day, rank)]


def rank_ttm(panel, day, rank):
    return panel.ttms[day, oracles.rank_column(panel, day, rank)]


# one malformed row of each kind the loader rejects, per file it applies to
BAD_ROWS = [
    ("spot.csv", "2021-03-01,VIX,close", "expected 4 fields, got 3"),
    ("spot.csv", "2021-03-01,VIX,close,20.0,x", "expected 4 fields, got 5"),
    ("futures.csv", "2021-03-01,F01,close", "expected 4 fields, got 3"),
    ("futures.csv", "2021-03-01,F01,close,20.0,x", "expected 4 fields, got 5"),
    ("rates.csv", "2021-03-01,ON,rate", "expected 4 fields, got 3"),
    ("rates.csv", "2021-03-01,ON,rate,0.01,x", "expected 4 fields, got 5"),
    ("spot.csv", "2021-13-01,VIX,close,20.0", "bad date '2021-13-01'"),
    ("futures.csv", "2021-02-30,F01,close,20.0", "bad date '2021-02-30'"),
    ("futures.csv", "2021-1-4,F99,expiry,", "bad date '2021-1-4'"),
    ("rates.csv", "01/03/2021,ON,rate,0.01", "bad date '01/03/2021'"),
    # numpy reads these as the years 20,210,301, 10,000 and 999
    ("futures.csv", "20210301,F01,close,20.0", "bad date '20210301'"),
    ("spot.csv", "10000-01-01,VIX,close,20.0", "bad date '10000-01-01'"),
    ("rates.csv", "0999-12-31,ON,rate,0.01", "bad date '0999-12-31'"),
    ("spot.csv", "2021-03-01,VIX,close,not_a_number", "bad number 'not_a_number'"),
    ("futures.csv", "2021-03-01,F01,close,", "bad number ''"),
    ("rates.csv", "2021-03-01,ON,rate,0.5%", "bad number '0.5%'"),
    ("spot.csv", "2021-03-01,VIX,close,nan", "non-finite value 'nan'"),
    ("futures.csv", "2021-03-01,F01,close,inf", "non-finite value 'inf'"),
    ("rates.csv", "2021-03-01,ON,rate,-inf", "non-finite value '-inf'"),
    ("spot.csv", "2021-03-01,VIX,close,0.0", "nonpositive price"),
    ("futures.csv", "2021-03-01,F01,close,-1.5", "nonpositive price"),
    ("spot.csv", "2021-03-01,VIX,open,20.0", "unknown field 'open'"),
    ("futures.csv", "2021-03-01,F01,settle,20.0", "unknown field 'settle'"),
    ("rates.csv", "2021-03-01,ON,close,0.01", "unknown field 'close'"),
    ("futures.csv", "2021-01-05,F99,close,20.0", "close for contract 'F99' has no expiry row"),
]

# a second row for a key an earlier row holds, with that row's line and
# how the error names the key; write_quote_files(n_days=10) puts the
# 2021-01-05 spot close and rate on line 3, the expiry of F01 on line 2
# and its 2021-01-05 close on line 19 (after 9 expiry rows and the 8
# closes of 2021-01-04)
DUPLICATE_ROWS = [
    ("spot.csv", "2021-01-05,VIX,close,20.0", 3, "close for 2021-01-05"),
    ("rates.csv", "2021-01-05,ON,rate,0.01", 3, "rate for 2021-01-05"),
    ("futures.csv", "2021-01-05,F01,close,20.0", 19, "close for contract 'F01' on 2021-01-05"),
    ("futures.csv", "2021-03-01,F01,expiry,", 2, "expiry row for contract 'F01'"),
]

# write_quote_files settings, load_panel settings, day indices without a
# rate, and the days the oracle drops; every case quotes settling days
ORACLE_CASES = [
    (dict(drop_futures_on=(4, 30)), {}, (), 2),
    (dict(drop_futures_on=(10,), drop_rank=3), {}, (), 1),
    (dict(drop_futures_on=(10, 21), drop_rank=8), {}, (), 0),
    (dict(drop_futures_on=(10, 21), drop_rank=8), dict(n_ranks=8), (), 2),
    (dict(rate=0.036), {}, (5, 42), 2),
    (dict(rate=0.036, drop_futures_on=(5, 6)), {}, (6, 50), 3),
    ({}, dict(window=(10, 45)), (), 0),
    (dict(drop_futures_on=(3, 20)), dict(window=(10, 45)), (), 1),
    ({}, dict(n_ranks=5), (), 0),
    ({}, dict(n_ranks=8), (), 0),
]


def drop_rates(data_dir, dates):
    """Remove the rate rows of ``dates`` from ``data_dir``'s rates.csv."""
    path = data_dir / "rates.csv"
    prefixes = tuple(str(d) for d in dates)
    lines = path.read_text().splitlines(True)
    path.write_text("".join(line for line in lines if not line.startswith(prefixes)))


class TestLoadPanel:
    def test_aligned_panel_shape(self, tmp_path):
        dates = write_quote_files(tmp_path, n_days=40, seed=1)
        panel = load_panel(tmp_path)
        assert panel.n_days == 40
        assert panel.dates[0] == dates[0]
        # every row: one spot, one money-market value, front-7 tradable futures
        for j in range(panel.n_days):
            assert np.count_nonzero(panel.ttms[j] > 0) == 7
            assert np.isfinite(panel.spot[j])
            assert np.isfinite(panel.mm_value[j])

    def test_missing_quote_drops_day(self, tmp_path, caplog):
        write_quote_files(tmp_path, n_days=20, seed=2, drop_futures_on=(4,))
        with caplog.at_level(logging.INFO, logger="vixtrack.data"):
            panel = load_panel(tmp_path)
        assert panel.n_days == 19
        assert panel.n_dropped == 1
        assert "dropped 1 of 20 candidate days" in caplog.text
        assert "0 with no rate, 1 more missing a front close" in caplog.text

    def test_excessive_drops_abort_by_default(self, tmp_path):
        dates = write_quote_files(tmp_path, n_days=10, seed=2, drop_futures_on=(3, 4))
        drop_rates(tmp_path, [dates[7]])
        with pytest.raises(DataError, match="refusing") as info:
            load_panel(tmp_path, n_ranks=6)
        assert str(info.value) == (
            "3 of 10 days dropped (> 5%): 1 with no rate, 2 more missing a front close "
            "of 6 ranks; refusing to build a panel"
        )

    def test_window_filter(self, tmp_path):
        dates = write_quote_files(tmp_path, n_days=30, seed=3)
        panel = load_panel(tmp_path, window=(str(dates[5]), str(dates[14])))
        assert panel.n_days == 10
        assert panel.dates[0] == dates[5]

    @pytest.mark.parametrize("header_only", [True, False])
    def test_no_spot_close_names_the_file(self, tmp_path, header_only):
        # the window is named only when one was given
        dates = write_quote_files(tmp_path, n_days=10, seed=3)
        spot = tmp_path / "spot.csv"
        if header_only:
            spot.write_text(spot.read_text().splitlines()[0] + "\n")
            window, message = None, "spot.csv: no closes"
        else:
            after = dates[-1] + np.timedelta64(7, "D")
            window = (str(after), str(after + np.timedelta64(7, "D")))
            message = f"spot.csv: no closes from {window[0]} to {window[1]}"
        with pytest.raises(DataError) as info:
            load_panel(tmp_path, window=window)
        assert str(info.value) == message

    def test_malformed_row_reports_line_number(self, tmp_path):
        write_quote_files(tmp_path, n_days=10, seed=4)
        spot = tmp_path / "spot.csv"
        spot.write_text(spot.read_text() + "2021-02-01,VIX,close,not_a_number\n")
        with pytest.raises(DataError, match=r"spot\.csv:12"):
            load_panel(tmp_path)

    @pytest.mark.parametrize("name,row,message", BAD_ROWS)
    def test_every_loader_error_names_file_and_line(self, tmp_path, name, row, message):
        # the bad row goes on line 6, after two data rows, a blank line
        # and a comment, so skipped lines count too
        write_quote_files(tmp_path, n_days=10, seed=4)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + ["", "# inserted"] + [row] + lines[3:]) + "\n")
        with pytest.raises(DataError, match=re.escape(f"{name}:6: {message}")):
            load_panel(tmp_path)

    @pytest.mark.parametrize("date", ["", "NaT"])
    def test_missing_date_is_a_bad_date(self, tmp_path, date):
        # numpy parses both as NaT, which no quote can be dated
        write_quote_files(tmp_path, n_days=10, seed=4)
        spot = tmp_path / "spot.csv"
        spot.write_text(spot.read_text() + f"{date},VIX,close,20.0\n")
        with pytest.raises(DataError, match=re.escape(f"spot.csv:12: bad date {date!r}")):
            load_panel(tmp_path)

    @pytest.mark.parametrize("name,row,first,what", DUPLICATE_ROWS)
    def test_repeated_row_names_both_lines(self, tmp_path, name, row, first, what):
        write_quote_files(tmp_path, n_days=10, seed=4)
        path = tmp_path / name
        text = path.read_text()
        line_no = len(text.splitlines()) + 1
        path.write_text(text + row + "\n")
        message = f"{name}:{line_no}: duplicate {what} (first on line {first})"
        with pytest.raises(DataError, match=re.escape(message)):
            load_panel(tmp_path)

    def test_close_without_expiry_row_reports_line_and_contract(self, tmp_path):
        write_quote_files(tmp_path, n_days=10, seed=4)
        fut = tmp_path / "futures.csv"
        text = fut.read_text()
        line_no = len(text.splitlines()) + 1
        fut.write_text(text + "2021-01-05,F99,close,20.0\n")
        with pytest.raises(DataError, match=rf"futures\.csv:{line_no}: .*'F99'"):
            load_panel(tmp_path)

    def test_missing_middle_rank_drops_day(self, tmp_path):
        dates = write_quote_files(
            tmp_path, n_days=20, seed=2, drop_futures_on=(4,), drop_rank=3
        )
        panel = load_panel(tmp_path, n_ranks=7)
        assert panel.n_days == 19
        assert panel.n_dropped == 1
        assert dates[4] not in panel.dates

    def test_missing_rank_beyond_front_keeps_day(self, tmp_path):
        write_quote_files(tmp_path, n_days=10, seed=2)
        full = load_panel(tmp_path, n_ranks=7)
        write_quote_files(
            tmp_path, n_days=10, seed=2, drop_futures_on=(4,), drop_rank=8
        )
        panel = load_panel(tmp_path, n_ranks=7)
        assert panel.n_days == 10
        assert panel.n_dropped == 0
        quoted = ~np.isnan(panel.prices[4])
        assert list(panel.contracts[quoted]) == [f"F{k:02d}" for k in range(1, 8)]
        assert np.array_equal(panel.contracts, full.contracts)
        assert np.array_equal(panel.ttms[4], full.ttms[4], equal_nan=True)
        assert np.array_equal(panel.prices[4], full.prices[4], equal_nan=True)

    def test_front_rank_is_first_by_expiry_around_gap_days(self, tmp_path):
        # contract F<k> expires on day 21*k; days 4 and 22 lack the front
        # close, and day 21 is the first front's settlement day
        dates = write_quote_files(
            tmp_path, n_days=40, seed=2, drop_futures_on=(4, 22)
        )
        panel = load_panel(tmp_path)
        assert panel.n_dropped == 2
        kept = [dates.index(d) for d in panel.dates]
        assert kept == [i for i in range(40) if i not in (4, 22)]
        for j, i in enumerate(kept):
            k = i // 21 + 1
            assert rank_contract(panel, j, 1) == f"F{k:02d}"
            assert rank_ttm(panel, j, 1) == pytest.approx((21 * k - i) / 252)
        assert rank_contract(panel, kept.index(3), 1) == "F01"
        assert rank_contract(panel, kept.index(5), 1) == "F01"

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="missing input file"):
            load_panel(tmp_path)

    def test_ttm_is_trading_day_count_over_252(self, tmp_path):
        write_quote_files(tmp_path, n_days=25, seed=5)
        panel = load_panel(tmp_path)
        # front contract expires on trading day 21 of the synthetic grid
        assert rank_ttm(panel, 0, 1) == pytest.approx(21 / 252)
        assert rank_ttm(panel, 1, 1) == pytest.approx(20 / 252)
        assert rank_ttm(panel, 0, 2) == pytest.approx(42 / 252)

    def test_rank_shifts_by_one_across_expiry(self, tmp_path):
        write_quote_files(tmp_path, n_days=30, seed=6)
        panel = load_panel(tmp_path)
        # day 20 is the last day the original front trades; on day 21 the
        # old rank-2 contract occupies rank 1
        assert rank_contract(panel, 21, 1) == rank_contract(panel, 20, 2)
        assert rank_contract(panel, 21, 2) == rank_contract(panel, 20, 3)

    def test_stray_etn_file_is_ignored(self, tmp_path):
        # an ETN series with a gap must not drop the day from the panel
        dates = write_quote_files(tmp_path, n_days=40, seed=7)
        plain = load_panel(tmp_path)
        etn = ["date,code,field,value"]
        etn += [f"{d},VXX,close,{50.0 - 0.1 * j!r}" for j, d in enumerate(dates) if j != 17]
        (tmp_path / "etn.csv").write_text("\n".join(etn) + "\n")
        with_etn = load_panel(tmp_path)
        for f in dataclasses.fields(plain):
            np.testing.assert_array_equal(getattr(with_etn, f.name), getattr(plain, f.name))

    @pytest.mark.parametrize("name", ["spot.csv", "futures.csv", "rates.csv"])
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, name):
        # spreadsheet "CSV UTF-8" exports start with one
        write_quote_files(tmp_path, n_days=30, seed=7)
        plain = load_panel(tmp_path)
        path = tmp_path / name
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        marked = load_panel(tmp_path)
        for f in dataclasses.fields(plain):
            np.testing.assert_array_equal(getattr(marked, f.name), getattr(plain, f.name))

    def test_money_market_compounds_from_rates(self, tmp_path):
        write_quote_files(tmp_path, n_days=10, seed=8, rate=0.036)
        panel = load_panel(tmp_path)
        assert panel.mm_value[0] == 1.0
        gaps = np.diff(panel.dates) / np.timedelta64(1, "D")
        expected = np.cumprod(1.0 + 0.036 * gaps / 360.0)
        assert np.allclose(panel.mm_value[1:], expected, rtol=1e-14)

    def test_missing_rate_drops_day(self, tmp_path, caplog):
        dates = write_quote_files(tmp_path, n_days=20, seed=8, rate=0.036)
        drop_rates(tmp_path, [dates[4]])
        with caplog.at_level(logging.INFO, logger="vixtrack.data"):
            panel = load_panel(tmp_path)
        assert panel.n_dropped == 1
        assert "1 with no rate, 0 more" in caplog.text
        assert dates[4] not in panel.dates
        # the account spans the dropped day at the rate of the day before
        gaps = np.diff(panel.dates) / np.timedelta64(1, "D")
        expected = np.cumprod(1.0 + 0.036 * gaps / 360.0)
        assert np.allclose(panel.mm_value[1:], expected, rtol=1e-14)

    @pytest.mark.parametrize("quotes,kwargs,no_rate,n_dropped", ORACLE_CASES)
    def test_matches_row_by_row_oracle(self, tmp_path, quotes, kwargs, no_rate, n_dropped):
        dates = write_quote_files(tmp_path, n_days=60, seed=14, **quotes)
        drop_rates(tmp_path, [dates[i] for i in no_rate])
        if "window" in kwargs:
            kwargs = {**kwargs, "window": [str(dates[i]) for i in kwargs["window"]]}
        got = load_panel(tmp_path, **kwargs)
        want = oracles.load_panel_rows(tmp_path, **kwargs)
        assert want.n_dropped == n_dropped
        assert (want.ttms == 0).any()  # a settling contract is quoted
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert type(a) is type(b), field.name
            if isinstance(b, np.ndarray):
                assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
                assert a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b, field.name


class TestPricePanel:
    def test_loaded_rows_hold_settling_and_front_quotes(self, tmp_path):
        write_quote_files(tmp_path, n_days=60, seed=9)
        expiry, closes = {}, {}
        for line in (tmp_path / "futures.csv").read_text().splitlines()[1:]:
            date, code, fld, value = line.split(",")
            date = np.datetime64(date, "D")
            if fld == "expiry":
                expiry[code] = date
            else:
                closes[date, code] = float(value)
        n_ranks = 5  # the files quote 8 live contracts a day
        panel = load_panel(tmp_path, n_ranks=n_ranks)
        assert panel.n_days == 60
        by_expiry = sorted(expiry, key=expiry.get)
        assert list(panel.contracts) == sorted(panel.contracts, key=expiry.get)
        grid = weekday_dates(n=60 + 21 * len(expiry))
        n_settling = 0
        for j, date in enumerate(panel.dates):
            settling = [c for c in by_expiry if expiry[c] == date and (date, c) in closes]
            front = [c for c in by_expiry if expiry[c] > date][:n_ranks]
            quoted = ~np.isnan(panel.prices[j])
            assert np.array_equal(quoted, ~np.isnan(panel.ttms[j]))
            assert list(panel.contracts[quoted]) == settling + front
            for i in np.flatnonzero(quoted):
                code = panel.contracts[i]
                assert panel.prices[j, i] == closes[date, code]
                days_left = grid.index(expiry[code]) - grid.index(date)
                assert panel.ttms[j, i] == days_left / 252
            n_settling += len(settling)
        assert n_settling == 2  # days 21 and 42

    def test_simulated_panel_is_nan_exactly_past_maturity(self):
        panel, _, _ = make_sim_panels(cycles=2, seed=10, extra_contracts=2)
        assert panel.contracts.size == 4
        for i in range(4):
            maturity = 21 * (i + 1)
            for j in range(panel.n_days):
                if j > maturity:
                    assert np.isnan(panel.prices[j, i]) and np.isnan(panel.ttms[j, i])
                else:
                    assert np.isfinite(panel.prices[j, i])
                    # the loader's ttm: trading days to expiry over 252
                    assert panel.ttms[j, i] == (maturity - j) / TRADING_DAYS_PER_YEAR

    @pytest.mark.parametrize("matrix", ["ttms", "prices"])
    def test_matrix_not_days_by_contracts_rejected(self, matrix):
        panel = grid_panel(lambda j, k: 25.0, n_days=30)
        short = getattr(panel, matrix)[:, 1:]
        with pytest.raises(ValueError, match=r"must be days x contracts \(30, \d+\)"):
            dataclasses.replace(panel, **{matrix: short})

    def test_rows_out_of_expiry_order_rejected(self):
        panel = grid_panel(lambda j, k: 25.0, n_days=30)
        ttms, prices = panel.ttms.copy(), panel.prices.copy()
        ttms[5], prices[5] = ttms[5, ::-1], prices[5, ::-1]
        with pytest.raises(DataError, match="day 5 are not in expiry order"):
            dataclasses.replace(panel, ttms=ttms, prices=prices)

    @pytest.mark.parametrize(
        "unquoted, has, lacks", [("ttms", "price", "ttm"), ("prices", "ttm", "price")]
    )
    def test_price_and_ttm_quoted_apart_rejected(self, unquoted, has, lacks):
        # a ttm with no price would roll into NaN values and break the fit downstream
        panel = grid_panel(lambda j, k: 20.0 + k, n_days=30)
        matrix = getattr(panel, unquoted).copy()
        matrix[0, 2] = np.nan
        message = f"contract K03 has a {has} but no {lacks} on day 0"
        with pytest.raises(DataError, match=f"^{message}$"):
            dataclasses.replace(panel, **{unquoted: matrix})

    def test_observations_flatten_live_quotes_day_by_day(self, tmp_path):
        write_quote_files(tmp_path, n_days=60, seed=9)
        panel = load_panel(tmp_path, n_ranks=5)
        spots, ttms, prices, weights = panel.observations()
        k = 0
        for j in range(panel.n_days):
            live = np.flatnonzero(panel.ttms[j] > 0)  # settling contracts excluded
            for i in live:
                got = (spots[k], ttms[k], prices[k], weights[k])
                want = (
                    panel.spot[j], panel.ttms[j, i], panel.prices[j, i],
                    1.0 / (2.0 * live.size * panel.n_days),
                )
                assert got == want
                k += 1
        assert k == spots.size == ttms.size == prices.size == weights.size


class TestSplit:
    def test_seven_three_split(self, tmp_path):
        dates = write_quote_files(tmp_path, n_days=10, seed=11)
        panel = load_panel(tmp_path)
        cut = split_day(panel, dates[7])
        assert cut == 7
        assert panel.dates[cut] == dates[7]

    def test_boundary_between_trading_days(self, tmp_path):
        write_quote_files(tmp_path, n_days=10, seed=11, start="2021-01-04")
        panel = load_panel(tmp_path)
        # Saturday boundary: everything before the following Monday is in
        assert split_day(panel, "2021-01-09") == 5

    def test_boundary_outside_window_rejected(self, tmp_path):
        write_quote_files(tmp_path, n_days=10, seed=12)
        panel = load_panel(tmp_path)
        with pytest.raises(DataError):
            split_day(panel, "2020-01-01")
        with pytest.raises(DataError):
            split_day(panel, "2030-01-01")

    def test_one_day_window_rejected(self, tmp_path):
        dates = write_quote_files(tmp_path, n_days=10, seed=12)
        panel = load_panel(tmp_path)
        assert (split_day(panel, dates[2]), split_day(panel, dates[8])) == (2, 8)
        for boundary, n_in in ((dates[1], 1), (dates[9], 9)):
            with pytest.raises(DataError, match=f"leaves {n_in} in-sample and {10 - n_in} out"):
                split_day(panel, boundary)
