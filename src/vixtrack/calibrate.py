"""Parameter estimation: spot-series MLE and futures-curve moment fit.

Under square-root (CIR) dynamics the one-step transition density of the
index has a closed form involving the modified Bessel function I_q, of
order q = 2 mu theta / sigma^2 - 1 > -1, so the historical parameters
(mu, theta, sigma) are fitted by maximizing the average log-likelihood
over the observed daily transitions, with one simplex search from a
moment-based start.  ln I_q(x) comes from the uniform large-order
(Debye) expansion wherever hypot(q, x) >= 200, which on daily index
data is every transition, and is exact to rounding there; below that
radius it is ln of scipy's scaled ive(q, x) = I_q(x) e^-x plus x, with
the expansion where ive underflows, or below x = 1e-8 the leading term
q ln(x/2) - ln Gamma(q + 1) of the power series.

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
# Simplex iteration budget of the historical fit.
MLE_MAX_ITER = 600
_PENALTY = 1e12


# Radius hypot(q, x) from which the Debye expansion is exact to rounding.
_DEBYE_RADIUS = 200.0
# Below this x, ln I_q(x) = q ln(x/2) - ln Gamma(q + 1) to rounding for q > 0.
_SMALL_X = 1e-8
# Debye polynomials u_k(t) = t^k P_k(t^2), k = 1..5 (DLMF 10.41): the
# coefficients of P_k in t^2 from the constant term up, and P_k's divisor.
_DEBYE_P = (
    ((3, -5), 24),
    ((81, -462, 385), 1152),
    ((30375, -369603, 765765, -425425), 414720),
    ((4465125, -94121676, 349922430, -446185740, 185910725), 39813120),
    (
        (1519035525, -49286948607, 284499769554, -614135872350, 566098157625, -188699385875),
        6688604160,
    ),
)


def _log_i_debye(q: float, x: np.ndarray) -> np.ndarray:
    # Uniform large-order expansion (DLMF 10.41) in R = hypot(q, x) and
    # t = q/R, where u_k(t)/q^k = P_k(t^2)/R^k.  It is even in q, so it also
    # holds for -1 < q < 0, where the K_q term is e^(-2x) smaller.
    r = np.hypot(q, x)
    s = 1.0 / r
    t2 = q * q * (s * s)
    series = 0.0
    for coeffs, divisor in reversed(_DEBYE_P):
        p_k = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            p_k = c + t2 * p_k
        series = s * (p_k / divisor + series)
    return r - q * np.arcsinh(q / x) - 0.5 * np.log(2.0 * np.pi * r) + np.log1p(series)


def log_bessel_i(order: float, x):
    """ln I_order(x) for order > -1 and x > 0, vectorized over x.

    Entries with R = hypot(order, x) >= 200, every entry on daily index
    data, take the uniform large-order (Debye) expansion to five terms:
    within 4.3e-16 of a 40-digit mpmath reference, relative to
    max(1, |ln I|), for orders from -0.9 to 1e3.  The rest are
    ln(ive(order, x)) + x from scipy's exponentially scaled Bessel
    function, with the same expansion where ive underflows to zero, or
    below x = 1e-8 the power series' leading term, exact there.  The
    route depends on the input alone; nothing overflows for any x > 0.
    """
    if not (math.isfinite(order) and order > -1.0):
        raise ValueError(f"order must be finite and > -1, got {order}")
    scalar = np.isscalar(x)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    x_min = np.fmin.reduce(x_arr, initial=np.inf)  # NaN entries are skipped
    if x_min <= 0:
        raise ValueError("x must be positive")
    if x_min >= _SMALL_X and math.hypot(order, x_min) >= _DEBYE_RADIUS:
        out = _log_i_debye(order, x_arr)
    else:
        out = np.full_like(x_arr, np.nan)
        near = np.hypot(order, x_arr) < _DEBYE_RADIUS
        with np.errstate(divide="ignore"):
            out[near] = np.log(ive(order, x_arr[near])) + x_arr[near]
        redo = ~np.isfinite(out)  # the entries at R >= 200, and where ive underflowed
        small = redo & (x_arr < _SMALL_X)  # q/x could overflow in the expansion
        out[small] = order * (np.log(x_arr[small]) - math.log(2.0)) - math.lgamma(order + 1.0)
        redo ^= small
        out[redo] = _log_i_debye(order, x_arr[redo])
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
    evaluations: int
    converged: bool
    start: HistoricalParams
    at_bound: bool = False


@dataclass(frozen=True)
class MOMReport:
    """Risk-neutral curve fit: parameters and average squared pricing
    error."""

    params: RiskNeutralParams
    loss: float


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

    Runs one adaptive simplex (Nelder-Mead) search in log-parameter
    space from the moment start (:func:`initial_guess_from_moments`,
    reported as ``start``).  The start is a vertex of the initial
    simplex and the best vertex never gets worse, so the result is never
    below the start's likelihood.  ``converged`` is False when the
    search stops at ``MLE_MAX_ITER`` iterations or at the parameter
    box, which is flagged as ``at_bound``.
    """
    series = np.asarray(series, dtype=float)
    if series.size < 100:
        raise ValueError(f"need at least 100 observations, got {series.size}")
    if np.any(series <= 0):
        raise ValueError("spot series must be positive")
    init = initial_guess_from_moments(series)
    res = minimize(
        _neg_avg_loglik,
        np.log([init.mu, init.theta, init.sigma]),
        args=(series[1:], series[:-1]),
        method="Nelder-Mead",
        options={"maxiter": MLE_MAX_ITER, "xatol": 1e-8, "fatol": 1e-12, "adaptive": True},
    )
    mu, theta, sigma = np.exp(res.x)
    at_bound = any(
        v / lo < 1.0 + 1e-6 or v / hi > 1.0 - 1e-6
        for v, (lo, hi) in zip((mu, theta, sigma), MLE_BOUNDS)
    )
    return MLEReport(
        params=HistoricalParams(mu=float(mu), theta=float(theta), sigma=float(sigma)),
        avg_loglik=-float(res.fun),
        iterations=int(res.nit),
        evaluations=int(res.nfev),
        converged=bool(res.success and not at_bound),
        start=init,
        at_bound=at_bound,
    )


def _weighted_sq_errors(mu_t: float, theta_t: float, observations) -> np.ndarray:
    spots, ttms, prices, weights, _ = observations
    fitted = (spots - theta_t) * np.exp(-mu_t * ttms) + theta_t
    return weights * (fitted - prices) ** 2


def mom_loss(rn: RiskNeutralParams, observations) -> float:
    """Average squared futures-pricing error over the sample.

    loss = (1/n) sum_j (1/(2 N_j)) sum_i
           ((s_j - theta_tilde) e^(-mu_tilde T_i) + theta_tilde - f_j^i)^2

    ``observations`` is the (spot, ttm, price, weight, day) tuple of
    per-quote arrays from :meth:`PricePanel.observations`.
    """
    return float(np.sum(_weighted_sq_errors(rn.mu_tilde, rn.theta_tilde, observations)))


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
    observations, the per-quote arrays of :meth:`PricePanel.observations`.

    Raises
    ------
    CalibrationError
        If the loss surface cannot identify both parameters (a single
        maturity observed at a single spot level).
    """
    spots, ttms, prices, weights, _ = observations
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
        sq = _weighted_sq_errors(math.exp(log_mu), theta_star(log_mu), observations)
        return float(np.sum(sq))

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
    return MOMReport(params=rn, loss=mom_loss(rn, observations))
