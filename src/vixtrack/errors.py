"""Exception types shared across the package, and the check that
raises them for scalar or per-day array inputs alike."""

import numpy as np


class DataError(ValueError):
    """Raised when input data is malformed, misaligned, or has gaps."""


class CalibrationError(RuntimeError):
    """Raised when a parameter fit cannot be carried out (e.g. an
    unidentifiable loss surface)."""


class DegenerateProblemError(ValueError):
    """Raised when an optimization problem has no well-defined solution,
    e.g. a contract pair with equal times to maturity or a vanishing
    denominator in a closed-form solution."""


class VolatilitySingularityError(ZeroDivisionError):
    """Raised when the local volatility evaluates to zero where a division
    by it is required."""


def require(ok, exc: type, message: str, *values) -> None:
    """Raise ``exc`` unless every entry of ``ok`` holds.

    ``ok`` is a scalar or a per-day array.  The ``{}`` fields of
    ``message`` show ``values`` at the first failing entry, and an
    array check appends that entry's day.
    """
    ok = np.asarray(ok)
    if ok.all():
        return
    day = int(np.argmin(ok)) if ok.ndim else ()
    shown = [float(np.broadcast_to(v, ok.shape)[day]) for v in values]
    raise exc(message.format(*shown) + (f" on day {day}" if ok.ndim else ""))
