"""Parameter estimation: spot-series MLE and futures-curve moment fit.

Under square-root (CIR) dynamics the one-step transition density of the
index has a closed form involving the modified Bessel function I_q, of
order q = 2 mu theta / sigma^2 - 1 > -1, so the historical parameters
(mu, theta, sigma) are fitted by maximizing the average log-likelihood
over the observed daily transitions, with one quasi-Newton (BFGS)
search on the likelihood and its analytic score inside a parameter box
from a moment-based start.  Where the likelihood rises towards a face
of the box, as on near-constant series, the search steps onto that
face and goes on in the other parameters (an eps-active set); the
library imports no scipy.optimize.
ln I_q(x) comes from the uniform large-order (Debye) expansion
wherever hypot(q, x) >= 200, which on daily index data is most
transitions, but not a series' lows while the search passes through
small orders, and is exact to rounding there; below that radius it is
ln of scipy's scaled ive(q, x) = I_q(x) e^-x plus x, with the
expansion where ive underflows, or below x = 1e-8 the leading term
q ln(x/2) - ln Gamma(q + 1) of the power series.  On the expansion's
route the density's terms of size q, which cancel, are summed in a
closed form in which they do not, so the likelihood keeps its
precision at any order.  The score takes the expansion's partial
derivatives in q and x on every transition, from the same pass over
its series as the value.  ``log_bessel_i`` forms ln I_q(x) from that
one pass too, and it and the likelihood pick the entries off the
expansion by one rule.

The risk-neutral pair (mu_tilde, theta_tilde) is fitted by matching the
closed-form futures curve (s - theta_tilde) e^(-mu_tilde T) + theta_tilde
to observed prices in least squares, averaged over days (method of
moments).  The curve is linear in theta_tilde, which therefore has a
closed form for each mu_tilde (variable projection), leaving a
one-dimensional search: a coarse grid, then the same BFGS search as the
MLE's on the profile and its slope, the partial derivative in mu_tilde
at fixed theta_tilde.  The quotes are summed by maturity once, so each
profile value costs one pass over the maturities, not the quotes.  A
curve fit on a limit of its search is flagged ``at_bound``, as the MLE's
is; it does not fail the ``calibrate`` run (see ``cli``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, require
from .model import DT, HistoricalParams, RiskNeutralParams, futures_price

__all__ = [
    "MLEReport",
    "MOMReport",
    "log_bessel_i",
    "cir_log_density",
    "initial_guess_from_moments",
    "mle_fit",
    "mom_loss",
    "mom_fit",
]

# Parameter box (mu, theta, sigma) the historical fit searches in; a fit
# that ends on a face of it is flagged at_bound.
MLE_BOUNDS = ((1e-3, 100.0), (1e-2, 200.0), (1e-3, 50.0))
# Iteration budget of the BFGS search, in both fits.
MLE_MAX_ITER = 600
# The fit's objective where the likelihood is not finite.
_PENALTY = 1e12
# Largest projected score entry at which the search's end point is taken
# as the maximum: 1e-6 is 50x the largest at a stop on 18 regular series
# (2.0e-8).  On near-constant spots the search stops on the box at the
# value's rounding, with entries up to 1.3e-3 (the ln theta curvature is
# 7.5e8 there); those fits are at_bound, and so not converged, either way.
_STATIONARY = 1e-6
# Forward-difference step of the gradient search's starting Hessian, in
# log-parameters, and the most halvings of one of its line searches (as
# many trial steps as scipy's L-BFGS-B allows).
_HESSIAN_STEP = 1e-4
_MAX_HALVINGS = 20


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


# The five terms as one polynomial in s = 1/R: u_k(t)/q^k = P_k(t^2) s^k and
# t^2 = q^2 s^2, so the coefficient c of t^(2m) in P_k adds c q^(2m) / d_k
# to the coefficient of s^(k+2m), for powers s^1..s^15 and m = 0..5.  Entries
# (k + 2m - 1, c / d_k, m).
_DEBYE_S = tuple(
    (k + 2 * m - 1, c / divisor, m)
    for k, (coeffs, divisor) in enumerate(_DEBYE_P, start=1)
    for m, c in enumerate(coeffs)
)


def _log_i_debye_partials(q: float, x: np.ndarray):
    # R = hypot(q, x), P, and d/dq and x d/dx of the uniform large-order
    # expansion (DLMF 10.41) D = R - q asinh(q/x) - ln(2 pi R)/2 + ln(1 + P),
    # with P = sum_j a_j(q) s^(j+1) and s = 1/R:
    #   dD/dq   = -asinh(q/x) - q/(2R^2) + (P_q - P_s q/R^3)/(1 + P)
    #   x dD/dx = R - x^2/(2R^2) - P_s x^2/(R^3 (1 + P))
    # D is even in q, so it also holds for -1 < q < 0, where the K_q term is
    # e^(-2x) smaller.  One Horner pass carries P, P_s = dP/ds and P_q = dP/dq.
    r = np.hypot(q, x)
    q2m = [(q * q) ** m for m in range(6)]
    dq2m = [2 * m * q ** (2 * m - 1) if m else 0.0 for m in range(6)]
    a, a_q = [0.0] * 15, [0.0] * 15
    for j, c, m in _DEBYE_S:
        a[j] += c * q2m[m]
        a_q[j] += c * dq2m[m]
    s = 1.0 / r
    p, p_s, p_q = a[-1] * s, np.full_like(s, a[-1]), a_q[-1] * s
    for a_j, a_qj in zip(reversed(a[:-1]), reversed(a_q[:-1])):
        p += a_j
        p_q += a_qj
        p_s *= s
        p_s += p
        p *= s
        p_q *= s
    r2 = r * r
    p_s /= r2 * r * (1.0 + p)
    d_q = (p_q / (1.0 + p) - q * p_s) - np.arcsinh(q / x) - q / (2.0 * r2)
    x2 = x * x
    return r, p, d_q, r - x2 / (2.0 * r2) - p_s * x2


def _off_debye(order: float, x: np.ndarray, r: np.ndarray):
    # The entries of ln I_order(x) that do not take the Debye expansion, as
    # (indices, values): those with R = r < 200 from ln ive + x, except where
    # ive underflows, and below x = 1e-8 the power series' leading term
    # (q/x could overflow in the expansion).  None where every R >= 200 and
    # x >= 1e-8, and then scipy is not called.
    x_min = np.fmin.reduce(x, initial=np.inf)  # NaN entries are skipped
    if x_min >= _SMALL_X and math.hypot(order, x_min) >= _DEBYE_RADIUS:
        return np.empty(0, dtype=int), np.empty(0)
    from scipy.special import ive

    near = np.flatnonzero(r < _DEBYE_RADIUS)
    with np.errstate(divide="ignore"):
        from_ive = np.log(ive(order, x[near])) + x[near]
    kept = np.isfinite(from_ive)  # elsewhere ive underflowed
    off, values = near[kept], from_ive[kept]
    if x_min < _SMALL_X:
        small = x < _SMALL_X
        small[off] = False
        small = np.flatnonzero(small)
        leading = order * (np.log(x[small]) - math.log(2.0)) - math.lgamma(order + 1.0)
        off, values = np.concatenate([off, small]), np.concatenate([values, leading])
    return off, values


def log_bessel_i(order: float, x):
    """ln I_order(x) for order > -1 and x > 0, vectorized over x.

    Entries with R = hypot(order, x) >= 200 take the uniform
    large-order (Debye) expansion to five terms: within 4.3e-16 of a
    40-digit mpmath reference, relative to max(1, |ln I|), for orders
    from -0.9 to 1e3.  On daily index data that is most entries.  The
    rest are ln(ive(order, x)) + x from scipy's exponentially scaled
    Bessel function, with the same expansion where ive underflows to
    zero, or below x = 1e-8 the power series' leading term, exact
    there.  Each entry's route depends on that entry alone; nothing
    overflows for any finite x > 0.

    Raises
    ------
    ValueError
        If order is not finite and > -1, or if any x is not finite and
        > 0, naming the first such x.
    """
    if not (math.isfinite(order) and order > -1.0):
        raise ValueError(f"order must be finite and > -1, got {order}")
    scalar = np.isscalar(x)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    ok = np.isfinite(x_arr) & (x_arr > 0)
    if not ok.all():
        raise ValueError(f"x must be finite and > 0, got {x_arr[np.argmin(ok)]}")
    with np.errstate(all="ignore"):  # the entries it overflows at are replaced below
        r, p, _, _ = _log_i_debye_partials(order, x_arr)
        out = r - order * np.arcsinh(order / x_arr) - 0.5 * np.log(2.0 * np.pi * r) + np.log1p(p)
    off, values = _off_debye(order, x_arr, r)
    out[off] = values
    return float(out[0]) if scalar else out


def _transition(s_next, s_prev, mu: float, theta: float, sigma: float):
    # the order q, scale sig2, decayed state u and Bessel argument x of
    # cir_log_density
    q = 2.0 * mu * theta / sigma**2 - 1.0
    decay = math.exp(-mu * DT)
    sig2 = sigma**2 * (1.0 - decay) / (2.0 * mu)
    u = s_prev * decay
    return q, sig2, u, 2.0 * np.sqrt(s_next * u) / sig2


def _large_terms(s_next, s_prev, mu: float, theta: float, q: float, sig2: float, u):
    # The terms of ln f of size q on the Debye route, -(s' + u)/sig2 +
    # (q/2) ln(s'/u) + R - q asinh(q/x), which cancel to O(1).  They equal
    # h/sig2 exactly for every q > -1, with c = sig2 q / 2,
    # rho = sqrt(c^2 + s' u) and 1 + eps = s'/(c + rho):
    #   h = 2c (ln(1 + eps) - eps) - u eps^2,
    #   eps = s' (gap + sig2) / ((s' - c + rho)(c + rho)),
    # where gap = s' - m is the gap between s' and its conditional mean
    # m = theta (1 - e^(-mu dt)) + u, taken as (s' - s) + (s - theta)
    # (1 - e^(-mu dt)) so that nothing cancels, and c + rho is taken as
    # s' u / (rho - c) for c < 0.
    gap = (s_next - s_prev) - (s_prev - theta) * math.expm1(-mu * DT)
    c = 0.5 * sig2 * q
    rho = np.sqrt(c * c + s_next * u)
    c_rho = c + rho if c >= 0 else s_next * u / (rho - c)
    eps = s_next * (gap + sig2) / ((s_next - c + rho) * c_rho)
    return (2.0 * c * (np.log1p(eps) - eps) - u * eps * eps) / sig2


def _log_density(s_next, log_s_next, s_prev, mu: float, theta: float, sigma: float):
    # cir_log_density on positive arrays of one shape, given ln s_next, and
    # (q, sig2, u, dD/dq, x dD/dx) for the score.  On the Debye route its
    # terms of size q are _large_terms, and what is left of ln I_q(x),
    # -ln(2 pi R)/2 + ln(1 + P), has no large term; P comes from the pass
    # that gives the score's partials.  The entries off the expansion
    # (_off_debye) take the density as written.
    q, sig2, u, x = _transition(s_next, s_prev, mu, theta, sigma)
    with np.errstate(all="ignore"):  # non-finite entries are the caller's to catch
        r, p, d_q, x_d_x = _log_i_debye_partials(q, x)
        large = _large_terms(s_next, s_prev, mu, theta, q, sig2, u)
        log_f = large - math.log(sig2) - 0.5 * np.log(2.0 * np.pi * r) + np.log1p(p)
    off, log_i = _off_debye(q, x, r)
    ratio = log_s_next[off] - np.log(u[off])
    log_f[off] = -math.log(sig2) - (s_next[off] + u[off]) / sig2 + 0.5 * q * ratio + log_i
    return log_f, (q, sig2, u, d_q, x_d_x)


def cir_log_density(s_next, s_prev, p: HistoricalParams):
    """Log transition density of the square-root process over one step
    of dt = ``model.DT``.

    With sig2 = sigma^2 (1 - e^(-mu dt)) / (2 mu), q = 2 mu theta / sigma^2 - 1
    and u = s_prev e^(-mu dt):

        ln f = -ln sig2 - (s_next + u)/sig2 + (q/2) ln(s_next/u)
               + ln I_q(2 sqrt(s_next u) / sig2)

    Vectorized over (s_next, s_prev) pairs.  Positive mu and theta give
    q > -1, where the density is proper also when the Feller condition
    (q >= 0) fails.  Where ln I_q takes its large-order expansion, the
    terms of size q are summed in a form where they do not cancel, so
    the density keeps its precision at any order.

    Raises
    ------
    ValueError
        If any state is not finite and > 0, naming the first such pair.
    """
    scalar = np.isscalar(s_next) and np.isscalar(s_prev)
    as_array = lambda s: np.atleast_1d(np.asarray(s, dtype=float))
    s_next, s_prev = np.broadcast_arrays(as_array(s_next), as_array(s_prev))
    ok = np.isfinite(s_next) & (s_next > 0) & np.isfinite(s_prev) & (s_prev > 0)
    message = "states must be finite and > 0, got s_next {} and s_prev {}"
    require(ok, ValueError, message, s_next, s_prev)
    log_f = _log_density(s_next, np.log(s_next), s_prev, p.mu, p.theta, p.sigma)[0]
    return float(log_f[0]) if scalar else log_f


@dataclass(frozen=True)
class MLEReport:
    """Historical-measure fit with convergence diagnostics."""

    params: HistoricalParams
    avg_loglik: float
    iterations: int
    evaluations: int
    converged: bool
    at_bound: bool


@dataclass(frozen=True)
class MOMReport:
    """Risk-neutral curve fit: parameters, average squared pricing
    error, and whether the fit sits on a limit of its search."""

    params: RiskNeutralParams
    loss: float
    at_bound: bool


def initial_guess_from_moments(series: np.ndarray) -> HistoricalParams:
    """Moment-based starting point for a daily series: sample mean for
    theta, lag-1 autocorrelation for mu, realized quadratic variation
    for sigma.

    Raises
    ------
    CalibrationError
        If the series is constant but for at most its first or last
        value, where the autocorrelation is undefined.
    """
    s = np.asarray(series, dtype=float)
    if np.ptp(s[1:]) == 0 or np.ptp(s[:-1]) == 0:
        raise CalibrationError(
            "the spot is constant, but for at most its first or last close: "
            "its lag-1 autocorrelation, and so mu, is undefined"
        )
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


def _neg_avg_loglik_and_score(z: np.ndarray, s_next, log_s_next, s_prev):
    # The negative mean of cir_log_density, to the bit, and its gradient in
    # z = (ln mu, ln theta, ln sigma), from the Debye partials of ln I_q(x)
    # on every entry (also those whose value comes from ive).  The score is
    # the chain rule through q (dq/dz = (q + 1) (1, 1, -2)), ln sig2
    # (g, 0, 2), ln u (-mu dt, 0, 0) and ln x (-mu dt/2 - g, 0, -2), with
    # g = mu dt / (e^(mu dt) - 1) - 1.  Where the value or the score is not
    # finite the point is a wall: the penalty, with a gradient that is not
    # zero, so it is never stationary.
    mu, theta, sigma = np.exp(z).tolist()
    log_f, (q, sig2, u, d_q, x_d_x) = _log_density(s_next, log_s_next, s_prev, mu, theta, sigma)
    val = np.mean(log_f)
    with np.errstate(all="ignore"):  # a non-finite score is caught below
        mu_dt = mu * DT
        g = mu_dt / math.expm1(mu_dt) - 1.0
        w_bar, x_d_x_bar = np.mean((s_next + u) / sig2), np.mean(x_d_x)
        by_q = (q + 1.0) * (0.5 * np.mean(log_s_next - np.log(u)) + np.mean(d_q))
        score = np.array([
            by_q + g * (w_bar - 1.0) + mu_dt * (np.mean(u) / sig2 + 0.5 * q)
            - (0.5 * mu_dt + g) * x_d_x_bar,
            by_q,
            2.0 * (w_bar - 1.0 - x_d_x_bar - by_q),
        ])
    if not (np.isfinite(val) and np.all(np.isfinite(score))):
        return _PENALTY, np.full(3, _PENALTY)
    return -float(val), -score


def _bfgs_in_box(fun, z, bounds):
    # Minimize fun(z) -> (value, gradient) by BFGS inside the box bounds
    # (rows of (lo, hi)) from z; returns (z, value, projected gradient,
    # iterations, evaluations).  Both fits run it: the MLE in three
    # log-parameters, the curve fit in log mu_tilde on a profile divided by
    # its grid minimum, since the stop rules below are absolute (the
    # projected gradient's, and the value's where it is below 1).  The
    # Hessian approximation hess starts from forward differences of the
    # gradient at z, V |L| V' from their eigenpairs (L, V), so an indefinite
    # start still gets a scaled step, or where an eigenvalue is 0 from an
    # identity scaled so that no entry of the first step exceeds 1, and
    # takes the direct BFGS update.  Each step is projected quasi-Newton on
    # an eps-active set (Bertsekas, SIAM J. Control Optim. 20(2), 1982):
    # with the projected gradient pg = z - clip(z - g) and
    # eps = min(1e-2, |pg|), a coordinate within eps of a face that its
    # gradient points out through steps onto that face, and the free ones
    # solve hess[free, free] d = -g[free] (the plain quasi-Newton step where
    # none is active, an empty solve where all are).  Each trial point is
    # clipped into the box and halved back to the Armijo condition.  Stops
    # when no projected gradient entry exceeds 1e-8, when a step moves the
    # value by at most 1e-13 of its size, when the line search cannot lower
    # it (_MAX_HALVINGS trials, or one that moves the value by at most that
    # much), or after MLE_MAX_ITER iterations.
    lo, hi = bounds.T
    tiny = lambda a, b: abs(a - b) <= 1e-13 * max(abs(a), abs(b), 1.0)
    projected = lambda z, g: z - np.clip(z - g, lo, hi)
    f, g = fun(z)
    steps = z + _HESSIAN_STEP * np.eye(z.size)
    hess = (np.array([fun(z_i)[1] for z_i in steps]) - g) / _HESSIAN_STEP
    eig, vec = np.linalg.eigh(0.5 * (hess + hess.T))
    if np.all(eig != 0.0):
        hess = (vec * np.abs(eig)) @ vec.T
    else:
        hess = np.eye(z.size) * max(1.0, np.max(np.abs(g)))
    iterations, evaluations = 0, 1 + z.size
    while iterations < MLE_MAX_ITER and np.max(np.abs(pg := projected(z, g))) > 1e-8:
        eps = min(1e-2, float(np.linalg.norm(pg)))
        free = ~(((z - lo <= eps) & (g > 0)) | ((hi - z <= eps) & (g < 0)))
        direction = np.where(g > 0, lo, hi) - z
        direction[free] = -np.linalg.solve(hess[np.ix_(free, free)], g[free])
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            z_new = np.clip(z + t * direction, lo, hi)
            f_new, g_new = fun(z_new)
            evaluations += 1
            accept = f_new <= f + 1e-4 * min(g @ (z_new - z), 0.0)
            if accept or tiny(f, f_new):
                break
            t *= 0.5
        if not accept:
            break
        iterations += 1
        s, y, last = z_new - z, g_new - g, tiny(f, f_new)
        z, f, g = z_new, f_new, g_new
        if last:
            break
        sy, hs = s @ y, hess @ s
        if sy > 0:  # the update keeps hess positive definite
            hess = hess + np.outer(y, y) / sy - np.outer(hs, hs) / (s @ hs)
    return z, f, projected(z, g), iterations, evaluations


def mle_fit(series) -> MLEReport:
    """Maximize the average log-likelihood of the square-root model on
    a daily spot series.

    Runs one quasi-Newton search (BFGS, numpy only) in log-parameter
    space from the moment start (:func:`initial_guess_from_moments`),
    inside the box ``MLE_BOUNDS``, on the likelihood and its analytic
    score.  Its Hessian approximation starts from forward differences of
    the score at the start (three more calls), with the absolute values of
    their eigenvalues where they are indefinite.  A log-parameter near a
    face of the box whose score points out through it steps onto the
    face, and the others take the quasi-Newton step of their own block
    (an eps-active set); each trial point is clipped into the box and
    halved back to the Armijo condition.  It stops when no entry of the
    projected score exceeds 1e-8 (the score, with each entry that points
    out of the box cut to the distance from that face), when a step
    lowers the negative average log-likelihood by at most 1e-13 of its
    size, when its line search cannot lower it (20 halvings, or a trial
    that moves the value by no more than that: near the maximum, at the
    objective's rounding), or after ``MLE_MAX_ITER`` iterations.  The
    search only accepts points that raise the likelihood, so the fit is
    never below the start's.  ``iterations`` and ``evaluations`` count
    its steps and its value-and-score calls, the start's four included.

    The likelihood keeps its precision on a degenerate series too (a
    near-constant spot, where the order q is 1e9 or more; see
    :func:`cir_log_density`), so the same search ends there, on the box.

    ``at_bound`` is True when a parameter ends within 1e-6 (relative)
    of its bound: the likelihood rises towards a face of the box, and
    the series does not pin that parameter inside it.  ``converged`` is
    True when no entry of the projected score at the end point exceeds
    1e-6 and the fit is not ``at_bound``.

    Raises
    ------
    ValueError
        If the series has fewer than 100 values or, naming the first
        day, one that is not finite and > 0.
    CalibrationError
        If the series is constant (see
        :func:`initial_guess_from_moments`).
    """
    series = np.asarray(series, dtype=float)
    if series.size < 100:
        raise ValueError(f"the MLE needs at least 100 daily closes, got {series.size}")
    ok = np.isfinite(series) & (series > 0)
    require(ok, ValueError, "spot close must be finite and > 0, got {}", series)
    init = initial_guess_from_moments(series)
    args = (series[1:], np.log(series[1:]), series[:-1])
    z, f, pg, iterations, evaluations = _bfgs_in_box(
        lambda z: _neg_avg_loglik_and_score(z, *args),
        np.log([init.mu, init.theta, init.sigma]),
        np.log(MLE_BOUNDS),
    )
    mu, theta, sigma = np.exp(z)
    at_bound = _at_bound(z)
    return MLEReport(
        params=HistoricalParams(mu=float(mu), theta=float(theta), sigma=float(sigma)),
        avg_loglik=-float(f),
        iterations=int(iterations),
        evaluations=int(evaluations),
        converged=bool(np.max(np.abs(pg)) <= _STATIONARY and not at_bound),
        at_bound=at_bound,
    )


def _at_bound(z) -> bool:
    # a log-parameter within 1e-6 (relative) of a face of MLE_BOUNDS
    return any(
        v / lo < 1.0 + 1e-6 or v / hi > 1.0 - 1e-6
        for v, (lo, hi) in zip(np.exp(z), MLE_BOUNDS)
    )


def mom_loss(rn: RiskNeutralParams, observations) -> float:
    """Average squared futures-pricing error over the sample.

    loss = (1/n) sum_j (1/(2 N_j)) sum_i
           ((s_j - theta_tilde) e^(-mu_tilde T_i) + theta_tilde - f_j^i)^2

    with the curve from :func:`~vixtrack.model.futures_price`.
    ``observations`` is the (spot, ttm, price, weight) tuple of
    per-quote arrays from :meth:`PricePanel.observations`.
    """
    spots, ttms, prices, weights = observations
    return float(np.sum(weights * (futures_price(spots, ttms, rn) - prices) ** 2))


def mom_fit(observations) -> MOMReport:
    """Fit (mu_tilde, theta_tilde) by minimizing the average squared
    pricing error, by variable projection on per-maturity sums.

    With e = e^(-mu_tilde T) and a = 1 - e, quote i's error is
    s_i e + theta_tilde a - f_i, so the quotes of one maturity T enter
    the loss only through their weight sum W, their weighted mean spot
    s and price f, the spread S_ss = sum w (s_i - s)^2 and, with
    b = S_sf / S_ss (0 where S_ss = 0), the residual
    R = sum w ((f_i - f) - b (s_i - s))^2:

        sum_i w (s_i e + theta_tilde a - f_i)^2
            = W gap^2 + S_ss (e - b)^2 + R,   gap = futures_price(s, T) - f,

    three terms that are never negative, so none cancels.  The quotes
    are grouped by maturity once; every later step is one pass over the
    maturities.  For fixed mu_tilde the loss is a convex quadratic in
    theta_tilde whose minimizer over the box (1e-6, 1e4) is
    sum W a (f - s e) / sum W a^2, clipped.  What is left is a
    one-dimensional search in log mu_tilde over (1e-6, 1e3) of that
    profile: a coarse log grid of 37 points brackets the best minimum,
    guarding against others, and the MLE's BFGS search refines it
    between the grid point's neighbours, from the grid point.  The
    profile's slope in log mu_tilde,
    -mu_tilde sum T e 2 (W gap (s - theta_tilde) + S_ss (e - b)), is
    the loss's partial derivative at fixed theta_tilde, since
    theta_tilde is either stationary or clipped (Golub & Pereyra,
    1973).  The search sees the profile and its slope divided by the
    grid minimum, so that its stop rules are scale-free; where that
    minimum is 0 the grid point fits exactly and is kept.  The search
    only accepts points that lower the loss, so the fit is never above
    the grid's.  The reported loss is :func:`mom_loss`, quote by quote.
    ``at_bound`` is True when theta_tilde is clipped to 1e-6 or 1e4 or
    the grid's best point is its first or last: the quotes do not pin
    down both parameters inside their ranges.
    Deterministic given the observations, the per-quote arrays of
    :meth:`PricePanel.observations`.

    Raises
    ------
    CalibrationError
        If the loss surface cannot identify both parameters (a single
        maturity observed at a single spot level).
    """
    spots, ttms, prices, weights = observations
    mats, first, group = np.unique(ttms, return_index=True, return_inverse=True)
    if np.unique(np.round(mats, 12)).size < 2 and np.unique(spots).size < 2:
        raise CalibrationError(
            "unidentifiable: one maturity at one spot level cannot pin down "
            "both mean-reversion parameters"
        )
    total = lambda x: np.bincount(group, x, mats.size)
    w_sum = total(weights)
    # each maturity's weighted means, taken about its first quote: where
    # its quotes share a spot (or a price) that is their mean exactly, and
    # S_ss = 0 (or R = 0), which a plain weighted mean misses by rounding
    mean = lambda x: x[first] + total(weights * (x - x[first][group])) / w_sum
    s_bar, f_bar = mean(spots), mean(prices)
    ds, df = spots - s_bar[group], prices - f_bar[group]
    s_ss = total(weights * ds * ds)
    b = np.divide(total(weights * ds * df), s_ss, out=np.zeros_like(s_ss), where=s_ss > 0)
    rest = np.sum(weights * (df - b[group] * ds) ** 2)

    def projected(log_mu: float):
        # the clipped best theta_tilde at mu_tilde = e^log_mu, and e by maturity
        e = np.exp(-math.exp(log_mu) * mats)
        a = 1.0 - e
        wa = w_sum * a
        theta = (wa @ (f_bar - s_bar * e)) / (wa @ a)
        return RiskNeutralParams(math.exp(log_mu), min(max(float(theta), 1e-6), 1e4)), e

    def profile(log_mu: float):
        # the loss at the projected theta_tilde and its slope in log mu_tilde
        rn, e = projected(log_mu)
        gap = futures_price(s_bar, mats, rn) - f_bar
        off = e - b
        value = w_sum @ gap**2 + s_ss @ off**2 + rest
        by_mat = w_sum * gap * (s_bar - rn.theta_tilde) + s_ss * off
        return value, -2.0 * rn.mu_tilde * ((mats * e) @ by_mat)

    def scaled_profile(z):
        value, slope = profile(z[0])
        return value / values[k], np.array([slope / values[k]])

    grid = np.linspace(math.log(1e-6), math.log(1e3), 37).tolist()
    values = [profile(z)[0] for z in grid]
    k = int(np.argmin(values))
    log_mu = grid[k]
    if values[k] > 0:  # else the grid point fits exactly
        bracket = np.array([[grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]]])
        log_mu = _bfgs_in_box(scaled_profile, np.array([log_mu]), bracket)[0][0]
    rn = projected(log_mu)[0]
    at_bound = k in (0, len(grid) - 1) or rn.theta_tilde in (1e-6, 1e4)
    return MOMReport(params=rn, loss=mom_loss(rn, observations), at_bound=at_bound)
