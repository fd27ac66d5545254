from fractions import Fraction

import numpy as np
import pytest

from vixtrack import (
    HistoricalParams,
    build_rolled_series,
    holding_period_returns,
    intercept_curve,
    ols_regression,
    scatter_report,
    slope_table,
)

from conftest import grid_panel, make_sim_panels, rolled


def positive_walk(n, seed, level=20.0, vol=0.02):
    rng = np.random.default_rng(seed)
    return level * np.exp(np.cumsum(vol * rng.standard_normal(n)))


class TestHoldingPeriodReturns:
    def test_constant_series(self):
        assert np.all(holding_period_returns(np.full(50, 7.0), 5) == 0.0)

    def test_simple_arithmetic(self):
        got = holding_period_returns([100.0, 110.0, 121.0], 1)
        assert np.allclose(got, [0.10, 0.10])

    def test_thirty_day_windows_on_six_years(self):
        series = positive_walk(1510, 0)
        assert holding_period_returns(series, 30).size == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            holding_period_returns([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            holding_period_returns([1.0, 2.0], 5)


class TestOlsRegression:
    def test_identity(self):
        x = positive_walk(100, 1)
        res = ols_regression(x, x)
        assert res.slope == pytest.approx(1.0, abs=1e-14)
        assert res.intercept == pytest.approx(0.0, abs=1e-12)
        assert res.r2 == pytest.approx(1.0, abs=1e-14)

    def test_five_point_exact_rational_oracle(self):
        x = [1.0, 2.0, 3.0, 4.0, 7.0]
        y = [2.0, 3.0, 5.0, 4.0, 9.0]
        fx = [Fraction(int(v)) for v in x]
        fy = [Fraction(int(v)) for v in y]
        n = Fraction(5)
        mx, my = sum(fx) / n, sum(fy) / n
        sxx = sum((a - mx) ** 2 for a in fx)
        sxy = sum((a - mx) * (b - my) for a, b in zip(fx, fy))
        slope = sxy / sxx
        intercept = my - slope * mx
        rss = sum((b - intercept - slope * a) ** 2 for a, b in zip(fx, fy))
        res = ols_regression(x, y)
        assert res.slope == pytest.approx(float(slope), rel=1e-15)
        assert res.intercept == pytest.approx(float(intercept), rel=1e-15)
        assert res.rmse == pytest.approx(float(rss / n) ** 0.5, rel=1e-14)
        s2 = rss / (n - 2)
        assert res.slope_se == pytest.approx(float(s2 / sxx) ** 0.5, rel=1e-14)

    def test_r2_equals_squared_correlation(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=200)
        y = 0.7 * x + rng.normal(size=200)
        res = ols_regression(x, y)
        assert res.r2 == pytest.approx(np.corrcoef(x, y)[0, 1] ** 2, abs=1e-12)

    def test_rmse_squared_times_n_is_rss(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=150)
        y = 1.2 * x + rng.normal(size=150)
        res = ols_regression(x, y)
        resid = y - res.intercept - res.slope * x
        assert res.rmse**2 * res.n == pytest.approx(np.sum(resid**2), rel=1e-10)

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=80)
        y = 0.5 * x + rng.normal(size=80)
        perm = rng.permutation(80)
        a, b = ols_regression(x, y), ols_regression(x[perm], y[perm])
        assert a.slope == pytest.approx(b.slope, rel=1e-12)
        assert a.intercept == pytest.approx(b.intercept, abs=1e-14)
        assert a.r2 == pytest.approx(b.r2, rel=1e-12)
        assert a.rmse == pytest.approx(b.rmse, rel=1e-12)

    def test_noiseless_affine_recovered_exactly(self):
        x = np.linspace(-1, 2, 60)
        res = ols_regression(x, 1.7 * x - 0.3)
        assert res.slope == pytest.approx(1.7, abs=1e-14)
        assert res.intercept == pytest.approx(-0.3, abs=1e-14)
        assert res.rmse == pytest.approx(0.0, abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            ols_regression([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            ols_regression(np.ones(10), np.arange(10.0))


class TestSlopeTable:
    def test_recovers_planted_daily_link(self):
        # every contract is a scaled copy of a process whose daily returns
        # are an exact affine function of spot returns
        spot = positive_walk(130, 7)
        a, b = 0.55, -1e-3
        factor = np.empty(130)
        factor[0] = 30.0
        spot_ret = spot[1:] / spot[:-1] - 1.0
        for j in range(129):
            factor[j + 1] = factor[j] * (1.0 + a * spot_ret[j] + b)
        panel = grid_panel(
            lambda j, k: (1.0 + 0.1 * k) * factor[j], n_days=130, spot=spot
        )
        table = slope_table(panel.spot, rolled(panel, 1, 2, 3), holding_periods=[1])
        assert np.allclose(table.slopes, a, atol=1e-12)
        assert np.allclose(table.r2s, 1.0, atol=1e-12)
        text = table.to_text()
        assert "slope" in text and "3-m" in text

    def test_slopes_decline_with_maturity_on_simulated_market(self):
        panel, _, _, _ = make_sim_panels(cycles=6, seed=15, extra_contracts=5)
        table = slope_table(panel.spot, rolled(panel, 1, 2, 3, 4), holding_periods=[1])
        assert np.all(np.diff(table.slopes[0]) < 0)


class TestInterceptCurve:
    def test_identical_dynamics_give_zero_intercepts(self):
        spot = positive_walk(150, 8)
        panel = grid_panel(lambda j, k: 1.5 * spot[j], n_days=150, spot=spot)
        curve = intercept_curve(
            panel.spot, build_rolled_series(panel, 1), horizons=range(1, 11)
        )
        assert np.allclose(curve.intercepts, 0.0, atol=1e-12)

    def test_null_market_intercepts_statistically_zero(self):
        rng = np.random.default_rng(9)
        spot = positive_walk(400, 10)
        noise = 1.0 + 0.003 * rng.standard_normal((400, 25))
        panel = grid_panel(
            lambda j, k: 2.0 * spot[j] * noise[j, k], n_days=400, spot=spot
        )
        curve = intercept_curve(
            panel.spot, build_rolled_series(panel, 1), horizons=range(1, 11)
        )
        assert np.all(np.abs(curve.intercepts) <= 3.0 * curve.std_errors)

    def test_contango_market_has_negative_intercepts(self):
        # low, slowly moving spot under a high long-run pricing level:
        # the curve sits above spot and rolls down every day
        hist = HistoricalParams(mu=2.0, theta=13.0, sigma=0.8)
        panel, _, _, _ = make_sim_panels(
            cycles=6, seed=3, s0=13.0, hist=hist, r=0.0, extra_contracts=2
        )
        curve = intercept_curve(
            panel.spot, build_rolled_series(panel, 1), horizons=range(1, 11)
        )
        assert np.all(curve.intercepts < 0.0)


class TestScatterReport:
    def test_identical_returns(self):
        r = positive_walk(100, 12)
        ret = r[1:] / r[:-1] - 1.0
        rep = scatter_report(ret, ret)
        assert rep.regression.slope == pytest.approx(1.0)
        assert rep.slope_one_p == pytest.approx(1.0)

    def test_attenuated_slope_is_rejected(self):
        rng = np.random.default_rng(13)
        x = 0.02 * rng.standard_normal(500)
        y = 0.85 * x + 1e-4 * rng.standard_normal(500)
        rep = scatter_report(y, x)
        assert rep.regression.slope < 0.9
        assert rep.slope_one_p < 1e-6
