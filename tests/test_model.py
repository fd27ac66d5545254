import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vixtrack import (
    DegenerateProblemError,
    HistoricalParams,
    LocalVol,
    MarketConfig,
    RiskNeutralParams,
    VolatilitySingularityError,
    b_coefficient,
    critical_spot,
    futures_price,
    market_price_of_risk,
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

    def test_local_vol_kinds(self):
        g_const = LocalVol.constant(2.5)
        assert g_const(7.0) == 2.5
        g_sqrt = LocalVol.square_root(2.0)
        assert g_sqrt(9.0) == pytest.approx(6.0)
        assert g_sqrt(0.0) == 0.0
        with pytest.raises(ValueError):
            LocalVol("cubic", 1.0)
        with pytest.raises(ValueError):
            g_sqrt(-1.0)

    def test_market_config_r_bar_is_derived(self):
        mkt = MarketConfig(r=0.05)
        assert mkt.r_bar == pytest.approx(math.expm1(0.05 / 252) * 252)
        assert mkt.growth_factor == pytest.approx(math.exp(0.05 / 252))


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
        assert market_price_of_risk(17.0, hist, rn, g) == 0.0

    def test_matches_extended_precision_value(self, fit_hist, fit_rn, fit_g):
        got = market_price_of_risk(18.81, fit_hist, fit_rn, fit_g)
        assert got == pytest.approx(oracles.LAMBDA_AT_THETA, rel=1e-14)

    def test_both_drifts_vanish_at_shared_level(self):
        hist = HistoricalParams(4.0, 20.0, 2.0)
        rn = RiskNeutralParams(1.0, 20.0)
        g = LocalVol.constant(2.0)
        assert market_price_of_risk(20.0, hist, rn, g) == 0.0

    def test_zero_volatility_is_a_singularity(self, fit_hist, fit_rn):
        g = LocalVol.square_root(6.37)
        with pytest.raises(VolatilitySingularityError):
            market_price_of_risk(0.0, fit_hist, fit_rn, g)


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
        mkt = MarketConfig(r=0.0)
        assert critical_spot(1.0, mkt, fit_rn) == pytest.approx(26.03, abs=1e-12)
        # beta cancels when r_bar = 0
        assert critical_spot(2.0, mkt, fit_rn) == pytest.approx(26.03, abs=1e-12)

    def test_matches_extended_precision_value(self, fit_rn):
        mkt = MarketConfig(r=0.05)
        got = critical_spot(1.0, mkt, fit_rn)
        assert got == pytest.approx(oracles.CRITICAL_SPOT_R005, rel=1e-14)

    def test_zero_denominator_rejected(self, fit_rn):
        mkt = MarketConfig(r=0.0)
        with pytest.raises(DegenerateProblemError):
            critical_spot(0.0, mkt, fit_rn)
