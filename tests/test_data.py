import dataclasses

import numpy as np
import pytest

from vixtrack import DataError, load_panel, normalize_to_100, split_in_out
from vixtrack.model import DT

from conftest import grid_panel, make_sim_panels, weekday_dates, write_quote_files
import oracles


def rank_contract(panel, day, rank):
    return panel.contracts[oracles.rank_column(panel, day, rank)]


def rank_ttm(panel, day, rank):
    return panel.ttms[day, oracles.rank_column(panel, day, rank)]


class TestLoadPanel:
    def test_aligned_panel_shape(self, tmp_path):
        dates = write_quote_files(tmp_path, n_days=40, seed=1)
        panel = load_panel(tmp_path)
        assert panel.n_days == 40
        assert panel.dates[0] == dates[0]
        # every row: one spot, one rate, front-7 tradable futures
        for j in range(panel.n_days):
            assert np.count_nonzero(panel.ttms[j] > 0) == 7
            assert np.isfinite(panel.spot[j])
            assert np.isfinite(panel.rates[j])

    def test_missing_quote_drops_day(self, tmp_path):
        write_quote_files(tmp_path, n_days=10, seed=2, drop_futures_on=(4,))
        panel = load_panel(tmp_path, max_drop_frac=0.15)
        assert panel.n_days == 9
        assert panel.n_dropped == 1

    def test_excessive_drops_abort_by_default(self, tmp_path):
        write_quote_files(tmp_path, n_days=10, seed=2, drop_futures_on=(3, 4))
        with pytest.raises(DataError, match="refusing"):
            load_panel(tmp_path)

    def test_window_filter(self, tmp_path):
        dates = write_quote_files(tmp_path, n_days=30, seed=3)
        panel = load_panel(tmp_path, window=(str(dates[5]), str(dates[14])))
        assert panel.n_days == 10
        assert panel.dates[0] == dates[5]

    def test_malformed_row_reports_line_number(self, tmp_path):
        write_quote_files(tmp_path, n_days=10, seed=4)
        spot = tmp_path / "spot.csv"
        spot.write_text(spot.read_text() + "2021-02-01,VIX,close,not_a_number\n")
        with pytest.raises(DataError, match=r"spot\.csv:12"):
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
            tmp_path, n_days=10, seed=2, drop_futures_on=(4,), drop_rank=3
        )
        panel = load_panel(tmp_path, n_ranks=7, max_drop_frac=0.15)
        assert panel.n_days == 9
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
            tmp_path, n_days=30, seed=2, drop_futures_on=(4, 22)
        )
        panel = load_panel(tmp_path, max_drop_frac=0.1)
        assert panel.n_dropped == 2
        kept = [dates.index(d) for d in panel.dates]
        assert kept == [i for i in range(30) if i not in (4, 22)]
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

    def test_money_market_compounds_from_rates(self, tmp_path):
        write_quote_files(tmp_path, n_days=10, seed=8, rate=0.036)
        panel = load_panel(tmp_path)
        assert panel.mm_value[0] == 1.0
        gaps = np.diff(panel.dates) / np.timedelta64(1, "D")
        expected = np.cumprod(1.0 + 0.036 * gaps / 360.0)
        assert np.allclose(panel.mm_value[1:], expected, rtol=1e-14)


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
        panel, _, _, _ = make_sim_panels(cycles=2, seed=10, extra_contracts=2)
        assert panel.contracts.size == 4
        for i in range(4):
            maturity = 21 * (i + 1)
            for j in range(panel.n_days):
                if j > maturity:
                    assert np.isnan(panel.prices[j, i]) and np.isnan(panel.ttms[j, i])
                else:
                    assert np.isfinite(panel.prices[j, i])
                    assert panel.ttms[j, i] == (maturity - j) * DT

    def test_rows_out_of_expiry_order_rejected(self):
        panel = grid_panel(lambda j, k: 25.0, n_days=30)
        ttms, prices = panel.ttms.copy(), panel.prices.copy()
        ttms[5], prices[5] = ttms[5, ::-1], prices[5, ::-1]
        with pytest.raises(DataError, match="day 5 are not in expiry order"):
            dataclasses.replace(panel, ttms=ttms, prices=prices)


class TestNormalize:
    def test_rescales_anchor_to_100(self):
        series = np.array([20.0, 22.0, 19.0])
        out = normalize_to_100(series)
        assert out[0] == 100.0
        assert np.allclose(out / series, 5.0)

    def test_already_normalized_unchanged(self):
        series = np.array([100.0, 104.0, 98.0])
        assert np.array_equal(normalize_to_100(series), series)

    def test_zero_anchor_rejected(self):
        with pytest.raises(ValueError):
            normalize_to_100(np.array([0.0, 1.0]))


class TestSplit:
    def test_seven_three_split(self, tmp_path):
        dates = write_quote_files(tmp_path, n_days=10, seed=11)
        panel = load_panel(tmp_path)
        a, b = split_in_out(panel, dates[7])
        assert (a.n_days, b.n_days) == (7, 3)
        assert a.dates[-1] < b.dates[0]

    def test_boundary_between_trading_days(self, tmp_path):
        write_quote_files(tmp_path, n_days=10, seed=11, start="2021-01-04")
        panel = load_panel(tmp_path)
        # Saturday boundary: everything before the following Monday is in
        a, b = split_in_out(panel, "2021-01-09")
        assert a.n_days == 5 and b.n_days == 5

    def test_boundary_outside_window_rejected(self, tmp_path):
        write_quote_files(tmp_path, n_days=10, seed=12)
        panel = load_panel(tmp_path)
        with pytest.raises(DataError):
            split_in_out(panel, "2020-01-01")
        with pytest.raises(DataError):
            split_in_out(panel, "2030-01-01")

    def test_integer_boundary_for_simulated_panels(self):
        panel, _, _, _ = make_sim_panels(cycles=2, seed=13)
        a, b = split_in_out(panel, 21)
        assert a.n_days == 21
        assert b.dates[0] == 21
