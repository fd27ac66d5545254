"""Seeded input generator for the benchmark.

Writes, from one integer seed, the files the ``vixtrack`` CLI reads:

* a quote set in the loader's ``date,code,field,value`` format
  (``spot.csv``, ``futures.csv``, ``rates.csv``): a square-root
  (CIR) spot path simulated by Euler steps (the same for every seed),
  model-priced futures on a 21-trading-day expiry grid with ``n_live``
  live ranks quoted each day (plus the settling contract on its expiry
  day), seeded multiplicative noise on every futures close, and a
  constant overnight rate;
* ``params.txt`` at the paper's operating point, in the format
  ``vixtrack calibrate`` writes;
* ``scenario.txt`` for ``vixtrack simulate``, whose simulation seed is
  the bench seed (as is the seed of the ``paths`` call).

The generator uses numpy only, never the package under test, so the
inputs do not change when the program does.  The same seed and size
give byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The paper's operating point (historical and risk-neutral measures).
MU, THETA, SIGMA = 10.86, 18.81, 6.37
MU_TILDE, THETA_TILDE = 1.39, 26.03

WORKLOADS = ("calibrate", "tables", "tracking", "paths")
TRADING_DAYS = 252
EXPIRY_SPACING = 21
RATE = 0.005
NOISE = 0.003
START = "2015-01-05"
SPOT_SEED = 0
# The paper's three starting levels (in units of theta) plus five more.
S0_MULTIPLIERS = (1.0, 1.0 / 3.0, 3.0, 0.5, 0.75, 1.5, 2.0, 2.5)


@dataclass(frozen=True)
class Size:
    """Problem size of every workload; ``FULL`` is what the benchmark
    times, ``SMALL`` only keeps the smoke tests fast."""

    n_days: int  # trading days in the quote set
    n_live: int  # live futures ranks quoted each day
    split_day: int  # first out-of-sample day for backtest-static
    cycles: int  # simulate --cycles
    path_steps: int  # simulate_index_paths n_days
    n_paths: int  # simulate_index_paths n_paths


FULL = Size(n_days=1260, n_live=8, split_day=756, cycles=60, path_steps=5040, n_paths=200)
SMALL = Size(n_days=160, n_live=8, split_day=96, cycles=3, path_steps=252, n_paths=4)
SIZES = {"full": FULL, "small": SMALL}


def weekdays(start: str, n: int) -> list:
    """``n`` consecutive weekdays from ``start`` (itself a weekday)."""
    first = np.datetime64(start, "D")
    out = np.busday_offset(first, np.arange(n), roll="forward")
    return [str(d) for d in out]


def spot_path(seed_seq: np.random.SeedSequence, n: int) -> np.ndarray:
    """Euler path of dS = MU (THETA - S) dt + SIGMA sqrt(S) dW from THETA."""
    z = np.random.default_rng(seed_seq).standard_normal(n - 1)
    dt = 1.0 / TRADING_DAYS
    sqrt_dt = math.sqrt(dt)
    s = np.empty(n)
    s[0] = THETA
    for j in range(n - 1):
        nxt = s[j] + MU * (THETA - s[j]) * dt + SIGMA * math.sqrt(s[j]) * sqrt_dt * z[j]
        s[j + 1] = max(nxt, 1e-8)
    return s


def write_inputs(out_dir, seed: int, size: Size = FULL) -> dict:
    """Write the quote set, params file and scenario file for ``seed``.

    Returns the facts the workloads need about the inputs: the quote
    directory, the two files, the split date and the ``paths`` seed.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    out_dir = Path(out_dir)
    quotes = out_dir / "quotes"
    quotes.mkdir(parents=True, exist_ok=True)
    # The spot path is the same for every seed.  The MLE's cost follows
    # the points its simplex visits, and those move chaotically with the
    # path: with a path drawn per seed, calibrate took 1.1-2.0 s per rep
    # and 117-174 MB over seeds 0-9 (log_bessel_i: 0.4 s on seed 1,
    # 1.6 s on seed 3, at about equal likelihood evaluations).
    spot_ss = np.random.SeedSequence(SPOT_SEED).spawn(2)[0]
    noise_ss = np.random.SeedSequence(seed).spawn(2)[1]

    n = size.n_days
    n_contracts = n // EXPIRY_SPACING + size.n_live + 1
    dates = weekdays(START, EXPIRY_SPACING * (n_contracts + 1))
    spot = spot_path(spot_ss, n)

    lines = ["date,code,field,value"]
    lines += [f"{dates[j]},VIX,close,{float(spot[j])!r}" for j in range(n)]
    (quotes / "spot.csv").write_text("\n".join(lines) + "\n")

    # Contract k (1-based) expires on trading day 21 k.  On day j the
    # quoted contracts are the settling one (expiry == j) and the next
    # n_live with expiry > j.
    expiry = EXPIRY_SPACING * np.arange(1, n_contracts + 1)
    noise = np.random.default_rng(noise_ss).standard_normal((n, n_contracts))
    lines = ["date,code,field,value"]
    lines += [f"{dates[e]},F{k + 1:02d},expiry," for k, e in enumerate(expiry)]
    for j in range(n):
        first = int(np.searchsorted(expiry, j, side="left"))
        live_from = first + 1 if expiry[first] == j else first
        for k in range(first, live_from + size.n_live):
            ttm = (expiry[k] - j) / TRADING_DAYS
            price = (spot[j] - THETA_TILDE) * math.exp(-MU_TILDE * ttm) + THETA_TILDE
            price *= 1.0 + NOISE * noise[j, k]
            lines.append(f"{dates[j]},F{k + 1:02d},close,{float(price)!r}")
    (quotes / "futures.csv").write_text("\n".join(lines) + "\n")

    lines = ["date,code,field,value"]
    lines += [f"{dates[j]},ON,rate,{RATE!r}" for j in range(n)]
    (quotes / "rates.csv").write_text("\n".join(lines) + "\n")

    params = out_dir / "params.txt"
    params.write_text(
        f"mu={MU!r}\ntheta={THETA!r}\nsigma={SIGMA!r}\n"
        f"mu_tilde={MU_TILDE!r}\ntheta_tilde={THETA_TILDE!r}\n"
    )
    scenario = out_dir / "scenario.txt"
    scenario.write_text(
        "beta=1.0\nr=0.01\ncontracts=1,2\n"
        f"seed={seed}\n"
        f"s0_multipliers={','.join(repr(m) for m in S0_MULTIPLIERS)}\n"
    )
    return {
        "quotes": str(quotes),
        "params": str(params),
        "scenario": str(scenario),
        "split": dates[size.split_day],
        "paths_seed": seed,
    }
