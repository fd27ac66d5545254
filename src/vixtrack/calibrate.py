"""Parameter estimation: spot-series MLE and futures-curve moment fit.

Under square-root (CIR) dynamics the one-step transition density of the
index has a closed form involving the modified Bessel function I_q, of
order q = 2 mu theta / sigma^2 - 1 > -1, so the historical parameters
(mu, theta, sigma) are fitted by maximizing the average log-likelihood
over the observed daily transitions.  ln I_q(x) is taken from scipy's
exponentially scaled ive(q, x) = I_q(x) e^-x, so the likelihood cannot
overflow even for arguments of order 1e6; a uniform large-order
expansion covers the entries where ive underflows.

The risk-neutral pair (mu_tilde, theta_tilde) is fitted by matching the
closed-form futures curve (s - theta_tilde) e^(-mu_tilde T) + theta_tilde
to observed prices in least squares, averaged over days (method of
moments).  The curve is linear in theta_tilde, which therefore has a
closed form for each mu_tilde (variable projection), leaving a
one-dimensional search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar
from scipy.special import ive

from .errors import CalibrationError
from .model import DT, HistoricalParams, RiskNeutralParams

__all__ = [
    "MLEReport",
    "MOMReport",
    "log_bessel_i",
    "cir_log_density",
    "average_log_likelihood",
    "initial_guess_from_moments",
    "mle_fit",
    "mom_loss",
    "mom_fit",
]

# Parameter box for the historical fit; solutions at a bound are flagged.
MLE_BOUNDS = ((1e-3, 100.0), (1e-2, 200.0), (1e-3, 50.0))
# Simplex iterations per start, and jittered restarts after the moment start.
MLE_MAX_ITER = 600
MLE_RESTARTS = 3
_PENALTY = 1e12


def _log_i_uniform(q: float, x: np.ndarray) -> np.ndarray:
    # Uniform large-order expansion in z = x/q (valid for all z, q large).
    x = np.atleast_1d(x)
    z = x / q
    root = np.sqrt(1.0 + z * z)
    eta = root + np.log(z / (1.0 + root))
    t = 1.0 / root
    t2 = t * t
    u1 = t * (3.0 - 5.0 * t2) / 24.0
    u2 = t2 * (81.0 - 462.0 * t2 + 385.0 * t2 * t2) / 1152.0
    u3 = (
        t * t2 * (30375.0 + t2 * (-369603.0 + t2 * (765765.0 - 425425.0 * t2)))
        / 414720.0
    )
    u4 = (
        t2
        * t2
        * (
            4465125.0
            + t2
            * (-94121676.0 + t2 * (349922430.0 + t2 * (-446185740.0 + 185910725.0 * t2)))
        )
        / 39813120.0
    )
    u5 = (
        t * t2 * t2
        * (
            1519035525.0
            + t2
            * (
                -49286948607.0
                + t2
                * (
                    284499769554.0
                    + t2
                    * (-614135872350.0 + t2 * (566098157625.0 - 188699385875.0 * t2))
                )
            )
        )
        / 6688604160.0
    )
    correction = 1.0 + u1 / q + u2 / q**2 + u3 / q**3 + u4 / q**4 + u5 / q**5
    return -0.5 * np.log(2.0 * np.pi * q) + q * eta - 0.5 * np.log(root) + np.log(
        correction
    )


def log_bessel_i(order: float, x):
    """ln I_order(x) for order > -1 and x > 0, vectorized over x.

    Computed as ln(ive(order, x)) + x, where ive(q, x) = I_q(x) e^-x is
    scipy's exponentially scaled Bessel function, so nothing overflows
    even for x of order 1e6.  Where ive underflows to zero (large orders
    at moderate x, or tiny x) the uniform large-order expansion takes
    over; the switch is made from the result, not from a threshold.
    """
    if not (math.isfinite(order) and order > -1.0):
        raise ValueError(f"order must be finite and > -1, got {order}")
    scalar = np.isscalar(x)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr <= 0):
        raise ValueError("x must be positive")
    with np.errstate(divide="ignore"):
        out = np.log(ive(order, x_arr)) + x_arr
    underflow = ~np.isfinite(out)
    if np.any(underflow):
        out[underflow] = _log_i_uniform(order, x_arr[underflow])
    return float(out[0]) if scalar else out


def cir_log_density(s_next, s_prev, p: HistoricalParams):
    """Log transition density of the square-root process over one step
    of dt = ``model.DT``.

    With sig2 = sigma^2 (1 - e^(-mu dt)) / (2 mu), q = 2 mu theta / sigma^2 - 1
    and u = s_prev e^(-mu dt):

        ln f = -ln sig2 - (s_next + u)/sig2 + (q/2) ln(s_next/u)
               + ln I_q(2 sqrt(s_next u) / sig2)

    Vectorized over (s_next, s_prev) pairs.  Positive mu and theta give
    q > -1, where the density is proper also when the Feller condition
    (q >= 0) fails.

    Raises
    ------
    ValueError
        If any state is nonpositive.
    """
    q = 2.0 * p.mu * p.theta / p.sigma**2 - 1.0
    scalar = np.isscalar(s_next) and np.isscalar(s_prev)
    s_next = np.atleast_1d(np.asarray(s_next, dtype=float))
    s_prev = np.atleast_1d(np.asarray(s_prev, dtype=float))
    if np.any(s_next <= 0) or np.any(s_prev <= 0):
        raise ValueError("states must be positive")
    decay = math.exp(-p.mu * DT)
    sig2 = p.sigma**2 * (1.0 - decay) / (2.0 * p.mu)
    u = s_prev * decay
    arg = 2.0 * np.sqrt(s_next * u) / sig2
    log_f = (
        -math.log(sig2)
        - (s_next + u) / sig2
        + 0.5 * q * (np.log(s_next) - np.log(u))
        + log_bessel_i(q, arg)
    )
    return float(log_f[0]) if scalar else log_f


def average_log_likelihood(series: np.ndarray, p: HistoricalParams) -> float:
    """Mean log transition density over consecutive daily observations."""
    series = np.asarray(series, dtype=float)
    return float(np.mean(cir_log_density(series[1:], series[:-1], p)))


@dataclass(frozen=True)
class MLEReport:
    """Historical-measure fit with convergence diagnostics."""

    params: HistoricalParams
    avg_loglik: float
    iterations: int
    converged: bool
    start: HistoricalParams
    at_bound: bool = False


@dataclass(frozen=True)
class MOMReport:
    """Risk-neutral curve fit: parameters, average squared pricing error,
    and its per-day decomposition."""

    params: RiskNeutralParams
    loss: float
    per_day_loss: np.ndarray


def initial_guess_from_moments(series: np.ndarray) -> HistoricalParams:
    """Moment-based starting point for a daily series: sample mean for
    theta, lag-1 autocorrelation for mu, realized quadratic variation
    for sigma."""
    s = np.asarray(series, dtype=float)
    theta0 = float(np.mean(s))
    rho = float(np.corrcoef(s[1:], s[:-1])[0, 1])
    rho = min(max(rho, 1e-4), 1.0 - 1e-4)
    mu0 = -math.log(rho) / DT
    sigma0 = math.sqrt(float(np.mean(np.diff(s) ** 2 / (s[:-1] * DT))))
    clip = lambda v, lo, hi: min(max(v, lo * 1.01), hi * 0.99)
    return HistoricalParams(
        mu=clip(mu0, *MLE_BOUNDS[0]),
        theta=clip(theta0, *MLE_BOUNDS[1]),
        sigma=clip(sigma0, *MLE_BOUNDS[2]),
    )


def _neg_avg_loglik(z: np.ndarray, s_next, s_prev) -> float:
    mu, theta, sigma = np.exp(z)
    penalty = 0.0
    for v, (lo, hi) in zip((mu, theta, sigma), MLE_BOUNDS):
        if v < lo:
            penalty += (math.log(lo) - math.log(v)) ** 2
        elif v > hi:
            penalty += (math.log(v) - math.log(hi)) ** 2
    if penalty > 0:
        return _PENALTY * (1.0 + penalty)
    q = 2.0 * mu * theta / sigma**2 - 1.0
    if q <= -1.0 + 1e-12:
        return _PENALTY
    p = HistoricalParams(mu=mu, theta=theta, sigma=sigma)
    val = np.mean(cir_log_density(s_next, s_prev, p))
    if not np.isfinite(val):
        return _PENALTY
    return -float(val)


def mle_fit(series) -> MLEReport:
    """Maximize the average log-likelihood of the square-root model on
    a daily spot series.

    Runs a derivative-free simplex search in log-parameter space from
    the moment start (:func:`initial_guess_from_moments`, reported as
    ``start``) plus ``MLE_RESTARTS`` deterministically jittered
    restarts, keeping the best local maximizer.  If no restart converges
    within ``MLE_MAX_ITER`` iterations the best point so far is returned
    with ``converged=False``.
    """
    series = np.asarray(series, dtype=float)
    if series.size < 100:
        raise ValueError(f"need at least 100 observations, got {series.size}")
    if np.any(series <= 0):
        raise ValueError("spot series must be positive")
    init = initial_guess_from_moments(series)
    s_next, s_prev = series[1:], series[:-1]
    z0 = np.log([init.mu, init.theta, init.sigma])
    rng = np.random.default_rng(20_52_01)
    starts = [z0] + [z0 + rng.normal(0.0, 0.25, size=3) for _ in range(MLE_RESTARTS)]
    best = None
    total_iter = 0
    any_converged = False
    for z_start in starts:
        res = minimize(
            _neg_avg_loglik,
            z_start,
            args=(s_next, s_prev),
            method="Nelder-Mead",
            options={
                "maxiter": MLE_MAX_ITER,
                "xatol": 1e-8,
                "fatol": 1e-12,
                "adaptive": True,
            },
        )
        total_iter += res.nit
        if best is None or res.fun < best.fun:
            best = res
            any_converged = res.success
    f_init = _neg_avg_loglik(z0, s_next, s_prev)
    if best.fun > f_init:
        # never return something worse than the starting point
        best_x, best_fun = z0, f_init
        any_converged = False
    else:
        best_x, best_fun = best.x, best.fun
    mu, theta, sigma = np.exp(best_x)
    at_bound = any(
        v / lo < 1.0 + 1e-6 or v / hi > 1.0 - 1e-6
        for v, (lo, hi) in zip((mu, theta, sigma), MLE_BOUNDS)
    )
    return MLEReport(
        params=HistoricalParams(mu=float(mu), theta=float(theta), sigma=float(sigma)),
        avg_loglik=-float(best_fun),
        iterations=total_iter,
        converged=bool(any_converged and not at_bound),
        start=init,
        at_bound=at_bound,
    )


def _flatten_observations(observations):
    # one entry per quote: spot, ttm, price, weight 1/(2 N_j n), day j
    if not observations:
        raise ValueError("empty observation set")
    spots, ttms, prices, weights, days = [], [], [], [], []
    n = len(observations)
    for j, (spot, quotes) in enumerate(observations):
        if not quotes:
            raise ValueError("every observation needs at least one contract")
        n_j = len(quotes)
        for ttm, price in quotes:
            spots.append(spot)
            ttms.append(ttm)
            prices.append(price)
            weights.append(1.0 / (2.0 * n_j * n))
            days.append(j)
    return tuple(np.array(v) for v in (spots, ttms, prices, weights, days))


def _weighted_sq_errors(mu_t: float, theta_t: float, flat) -> np.ndarray:
    spots, ttms, prices, weights, _ = flat
    fitted = (spots - theta_t) * np.exp(-mu_t * ttms) + theta_t
    return weights * (fitted - prices) ** 2


def mom_loss(rn: RiskNeutralParams, observations) -> float:
    """Average squared futures-pricing error over the sample.

    loss = (1/n) sum_j (1/(2 N_j)) sum_i
           ((s_j - theta_tilde) e^(-mu_tilde T_i) + theta_tilde - f_j^i)^2
    """
    flat = _flatten_observations(observations)
    return float(np.sum(_weighted_sq_errors(rn.mu_tilde, rn.theta_tilde, flat)))


def mom_fit(observations) -> MOMReport:
    """Fit (mu_tilde, theta_tilde) by minimizing the average squared
    pricing error, by variable projection.

    For fixed mu_tilde the fitted curve (s - theta) e + theta, with
    e = e^(-mu_tilde T) and a = 1 - e, is linear in theta_tilde, so the
    loss is a convex quadratic in theta_tilde whose minimizer over the
    box (1e-6, 1e4) is sum w a (f - s e) / sum w a^2, clipped.  What is
    left is a one-dimensional search in log mu_tilde over (1e-6, 1e3): a
    coarse log grid brackets the best minimum, guarding against others,
    and a bounded scalar search refines it.  Deterministic given the
    observations.

    Raises
    ------
    CalibrationError
        If the loss surface cannot identify both parameters (a single
        maturity observed at a single spot level).
    """
    flat = _flatten_observations(observations)
    spots, ttms, prices, weights, days = flat
    if np.unique(np.round(ttms, 12)).size < 2 and np.unique(spots).size < 2:
        raise CalibrationError(
            "unidentifiable: one maturity at one spot level cannot pin down "
            "both mean-reversion parameters"
        )

    def theta_star(log_mu: float) -> float:
        e = np.exp(-math.exp(log_mu) * ttms)
        a = 1.0 - e
        theta = np.sum(weights * a * (prices - spots * e)) / np.sum(weights * a * a)
        return min(max(float(theta), 1e-6), 1e4)

    def profile(log_mu: float) -> float:
        return float(np.sum(_weighted_sq_errors(math.exp(log_mu), theta_star(log_mu), flat)))

    grid = np.linspace(math.log(1e-6), math.log(1e3), 37)
    values = [profile(z) for z in grid]
    k = int(np.argmin(values))
    res = minimize_scalar(
        profile,
        bounds=(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    log_mu = float(res.x) if res.fun <= values[k] else float(grid[k])
    rn = RiskNeutralParams(mu_tilde=math.exp(log_mu), theta_tilde=theta_star(log_mu))
    sq = _weighted_sq_errors(rn.mu_tilde, rn.theta_tilde, flat)
    return MOMReport(
        params=rn,
        loss=float(np.sum(sq)),
        per_day_loss=np.bincount(days, weights=sq) * len(observations),
    )
