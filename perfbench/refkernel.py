"""A fixed reference kernel that gauges the host's current speed.

The host this benchmark runs on is shared: the speed of fixed work
moves by a factor of up to two with other tenants' load, in phases that
last from seconds to minutes.  The worker times this kernel right
before and right after every rep, so each rep's wall time can be set
against the host's speed at that moment.  The kernel is the benchmark's own code and never
calls the program, so a change to the program cannot move it.

Its mix follows the program's: interpreted Python with floats, dicts
and string formatting (the CLI, the loader, the strategy loop), numpy
on small arrays in a Python loop (the Euler engine), and vectorised
``scipy.special`` calls (the CIR likelihood).
"""

from __future__ import annotations

import time

import numpy as np
from scipy import special

_X = np.linspace(0.5, 40.0, 4000)
_NU = 2.7


def kernel() -> float:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    acc = 0.0
    rows = {}
    for i in range(48000):  # interpreted floats, dicts and formatting
        v = (i * 0.37) % 11.0
        acc += v * v - 0.5 * v
        if i % 16 == 0:
            rows[f"{i:05d}"] = f"{acc:.6f}"
    acc += len(rows)
    z = np.full(200, 20.0)  # small-array numpy in a Python loop
    for k in range(2400):
        z = np.maximum(z + 0.01 * (18.8 - z) + 0.02 * np.sqrt(z) * np.sin(k + z), 1e-8)
    acc += float(z.sum())
    for _ in range(24):  # vectorised special functions
        acc += float(np.sum(np.log(special.ive(_NU, _X))))
    return acc


def timed() -> float:
    """Wall time of one kernel call, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
