import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vixtrack import (
    DegenerateProblemError,
    HistoricalParams,
    LocalVol,
    RiskNeutralParams,
    b_coefficient,
    critical_spot,
    futures_price,
)

import oracles


class TestTypes:
    def test_historical_params_validation(self):
        with pytest.raises(ValueError):
            HistoricalParams(mu=-1.0, theta=20.0, sigma=1.0)
        with pytest.raises(ValueError):
            HistoricalParams(mu=1.0, theta=0.0, sigma=1.0)
        with pytest.raises(ValueError):
            HistoricalParams(mu=1.0, theta=20.0, sigma=-0.5)

    def test_risk_neutral_params_validation(self):
        with pytest.raises(ValueError):
            RiskNeutralParams(mu_tilde=0.0, theta_tilde=26.0)
        with pytest.raises(ValueError):
            RiskNeutralParams(mu_tilde=1.0, theta_tilde=-1.0)

    def test_local_vol_square_root(self):
        g_sqrt = LocalVol.square_root(2.0)
        assert g_sqrt(9.0) == pytest.approx(6.0)
        assert g_sqrt(0.0) == 0.0
        with pytest.raises(ValueError):
            LocalVol.square_root(-1.0)
        with pytest.raises(ValueError):
            g_sqrt(-1.0)
        # on an array: spot's shape, each entry equal to the scalar call
        spot = np.array([[0.0, 1e-8, 9.0], [18.81, 56.43, 1e6]])
        got = g_sqrt(spot)
        assert got.shape == spot.shape
        assert np.array_equal(got, [[g_sqrt(float(s)) for s in row] for row in spot])
        # one level per path: the error names the level, not a day
        with pytest.raises(ValueError, match=r"got -1\.0$"):
            LocalVol.square_root(2.0)(np.array([4.0, -1.0, 9.0]))
        with pytest.raises(ValueError, match=r"got -1\.0$"):
            g_sqrt(np.array([[1.0, 2.0, 3.0], [-1.0, 4.0, 5.0]]))

    def test_local_vol_edge_inputs(self):
        g_sqrt = LocalVol.square_root(2.0)
        # an empty batch has nothing to check
        assert g_sqrt(np.array([])).shape == (0,)
        assert g_sqrt(np.empty((0, 3))).shape == (0, 3)
        # a 0-d level, float or integer, is one level
        for spot in (np.array(9.0), np.float64(9.0), np.array(9), 9):
            assert g_sqrt(spot) == 6.0
        # NaN is not a level >= 0, wherever it sits
        for spot in (np.nan, np.array([4.0, np.nan]), np.array([[np.nan, -1.0], [1.0, 2.0]])):
            with pytest.raises(ValueError, match=r"^square-root volatility requires spot >= 0, got nan$"):
                g_sqrt(spot)
        for spot in (-0.5, np.array(-0.5), np.array([4.0, np.inf, -0.5])):
            with pytest.raises(ValueError, match=r"^square-root volatility requires spot >= 0, got -0\.5$"):
                g_sqrt(spot)


class TestFuturesPrice:
    def test_spot_at_long_run_level_is_fixed_point(self, fit_rn):
        assert futures_price(26.03, 0.5, fit_rn) == pytest.approx(26.03, abs=1e-15)

    def test_zero_maturity_returns_spot(self):
        rn = RiskNeutralParams(0.7, 31.0)
        assert futures_price(40.0, 0.0, rn) == 40.0

    def test_matches_extended_precision_value(self, fit_rn):
        got = futures_price(18.81, 1 / 12, fit_rn)
        assert got == pytest.approx(oracles.FUTURES_PRICE_1M_LOW_SPOT, rel=1e-14)

    def test_negative_ttm_rejected(self, fit_rn):
        with pytest.raises(ValueError):
            futures_price(20.0, -0.1, fit_rn)
        with pytest.raises(ValueError):
            futures_price(-1.0, 0.1, fit_rn)

    def test_arrays_equal_scalar_calls_elementwise(self, fit_rn):
        spots = np.array([[12.0, 18.81, 40.0], [26.03, 0.0, 80.0]])
        ttms = np.array([0.0, 1 / 12, 0.5])
        got = futures_price(spots, ttms, fit_rn)
        assert got.shape == (2, 3)
        for (i, j), price in np.ndenumerate(got):
            assert price == futures_price(float(spots[i, j]), float(ttms[j]), fit_rn)

    def test_negative_entry_names_its_day(self, fit_rn):
        with pytest.raises(ValueError, match=r"maturity must be >= 0, got -0\.1 on day 2$"):
            futures_price(20.0, np.array([0.5, 0.2, -0.1]), fit_rn)
        with pytest.raises(ValueError, match=r"spot must be >= 0, got -1\.0 on day 1 of path 1$"):
            futures_price(np.array([[20.0, 21.0], [22.0, -1.0]]), 0.1, fit_rn)

    @given(
        spot=st.floats(0.0, 200.0),
        ttm=st.floats(0.0, 10.0),
        mu_t=st.floats(0.05, 5.0),
        th_t=st.floats(1.0, 60.0),
    )
    def test_affine_in_spot_with_unit_bounded_slope(self, spot, ttm, mu_t, th_t):
        rn = RiskNeutralParams(mu_t, th_t)
        slope = math.exp(-mu_t * ttm)
        base = futures_price(spot, ttm, rn)
        bumped = futures_price(spot + 1.0, ttm, rn)
        assert 0.0 < slope <= 1.0
        assert bumped - base == pytest.approx(slope, rel=1e-9, abs=1e-12)

    @given(
        spot=st.floats(0.5, 100.0),
        ttm=st.floats(1e-4, 5.0),
        mu_t=st.floats(0.05, 5.0),
        th_t=st.floats(1.0, 60.0),
    )
    def test_price_strictly_between_spot_and_long_run_level(
        self, spot, ttm, mu_t, th_t
    ):
        rn = RiskNeutralParams(mu_t, th_t)
        price = futures_price(spot, ttm, rn)
        lo, hi = sorted((spot, th_t))
        if abs(spot - th_t) > 1e-9:
            assert lo < price < hi


class TestMarketPriceOfRisk:
    def test_identical_measures_give_zero(self):
        hist = HistoricalParams(2.0, 24.0, 3.0)
        rn = RiskNeutralParams(2.0, 24.0)
        g = LocalVol.square_root(3.0)
        assert oracles.market_price_of_risk(17.0, hist, rn, g) == 0.0

    def test_matches_extended_precision_value(self, fit_hist, fit_rn, fit_g):
        got = oracles.market_price_of_risk(18.81, fit_hist, fit_rn, fit_g)
        assert got == pytest.approx(oracles.LAMBDA_AT_THETA, rel=1e-14)

    def test_both_drifts_vanish_at_shared_level(self):
        hist = HistoricalParams(4.0, 20.0, 2.0)
        rn = RiskNeutralParams(1.0, 20.0)
        g = LocalVol.square_root(2.0)
        assert oracles.market_price_of_risk(20.0, hist, rn, g) == 0.0

    def test_zero_volatility_is_a_singularity(self, fit_hist, fit_rn):
        g = LocalVol.square_root(6.37)
        with pytest.raises(oracles.VolatilitySingularityError):
            oracles.market_price_of_risk(0.0, fit_hist, fit_rn, g)


class TestBCoefficient:
    def test_zero_ttm_collapses_to_g_over_spot(self, fit_rn):
        assert b_coefficient(22.0, 0.0, fit_rn, 5.0) == pytest.approx(5.0 / 22.0)

    def test_strictly_decreasing_in_ttm(self, fit_rn):
        g_val = 6.37 * math.sqrt(18.81)
        ttms = [1 / 252, 21 / 252, 42 / 252, 0.5, 1.0]
        values = [b_coefficient(18.81, t, fit_rn, g_val) for t in ttms]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_extended_precision_value(self, fit_rn):
        g_val = 6.37 * math.sqrt(18.81)
        got = b_coefficient(18.81, 21 / 252, fit_rn, g_val)
        assert got == pytest.approx(oracles.B_COEFF_21D, rel=1e-14)

    def test_nonpositive_denominator_rejected(self, fit_rn):
        with pytest.raises(ValueError):
            b_coefficient(0.0, 0.0, fit_rn, 1.0)
        with pytest.raises(ValueError, match="on day 1"):
            b_coefficient(np.array([5.0, 0.0]), np.array([0.1, 0.0]), fit_rn, 1.0)

    @given(
        spot=st.floats(0.5, 100.0),
        ttm1=st.floats(0.0, 2.0),
        ttm2=st.floats(0.0, 2.0),
    )
    def test_distinct_maturities_give_distinct_values(self, spot, ttm1, ttm2):
        rn = RiskNeutralParams(1.5, 25.0)
        if abs(ttm1 - ttm2) < 1e-6:
            return
        b1 = b_coefficient(spot, ttm1, rn, 4.0)
        b2 = b_coefficient(spot, ttm2, rn, 4.0)
        assert b1 != b2


class TestCriticalSpot:
    def test_zero_rate_collapses_to_theta_tilde(self, fit_rn):
        assert critical_spot(1.0, 0.0, fit_rn) == pytest.approx(26.03, abs=1e-12)
        # beta cancels when r_bar = 0
        assert critical_spot(2.0, 0.0, fit_rn) == pytest.approx(26.03, abs=1e-12)

    def test_matches_extended_precision_value(self, fit_rn):
        got = critical_spot(1.0, 0.05, fit_rn)
        assert got == pytest.approx(oracles.CRITICAL_SPOT_R005, rel=1e-14)

    def test_zero_denominator_rejected(self, fit_rn):
        with pytest.raises(DegenerateProblemError):
            critical_spot(0.0, 0.0, fit_rn)
