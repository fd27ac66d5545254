"""Reference results the benchmark computes itself, from the inputs
alone, to check the program's outputs for any seed.

They run in the parent process, so they add nothing to the measured
child's time or memory.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.special import ive

import inputs

# Floor simulate_index_path applies to a nonpositive Euler step.
SPOT_FLOOR = 1e-8


def _read_values(path: Path, field: str):
    """(dates, codes, values) of the rows with ``field`` in a quote file."""
    dates, codes, values = [], [], []
    for line in path.read_text().splitlines()[1:]:
        d, code, fld, val = line.split(",")
        if fld == field:
            dates.append(d)
            codes.append(code)
            values.append(val)
    return dates, codes, values


def truth_avg_loglik(spot: np.ndarray, dt: float) -> float:
    """Average CIR transition log-density at the generating parameters,
    with ln I_q(x) = ln(ive(q, x)) + x."""
    q = 2.0 * inputs.MU * inputs.THETA / inputs.SIGMA**2 - 1.0
    decay = math.exp(-inputs.MU * dt)
    sig2 = inputs.SIGMA**2 * (1.0 - decay) / (2.0 * inputs.MU)
    s_next, u = spot[1:], spot[:-1] * decay
    x = 2.0 * np.sqrt(s_next * u) / sig2
    log_f = (
        -math.log(sig2) - (s_next + u) / sig2
        + 0.5 * q * np.log(s_next / u) + np.log(ive(q, x)) + x
    )
    return float(np.mean(log_f))


def truth_mom_loss(quotes: Path) -> float:
    """Curve-fit loss of the generating risk-neutral pair: per day, half
    the mean squared pricing error over live contracts, averaged."""
    exp_dates, exp_codes, _ = _read_values(quotes / "futures.csv", "expiry")
    expiry = dict(zip(exp_codes, np.array(exp_dates, dtype="datetime64[D]")))
    dates, codes, values = _read_values(quotes / "futures.csv", "close")
    spot_dates, _, spot_vals = _read_values(quotes / "spot.csv", "close")
    spot = dict(zip(spot_dates, map(float, spot_vals)))
    one = np.timedelta64(1, "D")
    per_day: dict = {}
    for d, code, val in zip(dates, codes, values):
        n = int(np.busday_count(np.datetime64(d, "D") + one, expiry[code] + one))
        if n <= 0:
            continue  # settling contract: not tradable
        ttm = n / inputs.TRADING_DAYS
        model = (spot[d] - inputs.THETA_TILDE) * math.exp(-inputs.MU_TILDE * ttm)
        err = model + inputs.THETA_TILDE - float(val)
        per_day.setdefault(d, []).append(err * err)
    return float(np.mean([sum(e) / (2.0 * len(e)) for e in per_day.values()]))


def euler_terminals(steps: int, n_paths: int, seed: int) -> np.ndarray:
    """Terminal values of ``simulate_index_paths`` at the paper's point,
    recomputed with the same child streams, recursion and floor, across
    all paths at once."""
    dt = 1.0 / inputs.TRADING_DAYS
    sqrt_dt = np.sqrt(dt)
    children = np.random.SeedSequence(seed).spawn(n_paths)
    z = np.stack([np.random.default_rng(c).standard_normal(steps) for c in children])
    s = np.full(n_paths, inputs.THETA)
    for j in range(steps):
        nxt = s + inputs.MU * (inputs.THETA - s) * dt + inputs.SIGMA * np.sqrt(s) * sqrt_dt * z[:, j]
        s = np.maximum(nxt, SPOT_FLOOR)
    return s


def truth(workload: str, meta: dict, size: inputs.Size) -> dict:
    """The oracle values ``workloads.check_<workload>`` compares with."""
    if workload == "calibrate":
        quotes = Path(meta["quotes"])
        _, _, spot = _read_values(quotes / "spot.csv", "close")
        return {
            "avg_loglik": truth_avg_loglik(np.array(spot, dtype=float), 1.0 / inputs.TRADING_DAYS),
            "mom_loss": truth_mom_loss(quotes),
        }
    if workload == "paths":
        steps, n_paths = size.path_steps, size.n_paths
        return {"terminals": euler_terminals(steps, n_paths, meta["paths_seed"]).tolist()}
    return {}
