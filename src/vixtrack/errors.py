"""Exception types shared across the package, and the check that
raises them for scalar or array inputs alike."""

import numpy as np

__all__ = ["DataError", "CalibrationError", "DegenerateProblemError"]


class DataError(ValueError):
    """Raised when input data is malformed, misaligned, or has gaps."""


class CalibrationError(RuntimeError):
    """Raised when a parameter fit cannot be carried out (e.g. an
    unidentifiable loss surface)."""


class DegenerateProblemError(ValueError):
    """Raised when an optimization problem has no well-defined solution,
    e.g. a contract pair with equal times to maturity or a vanishing
    denominator in a closed-form solution."""


def require(ok, exc: type, message: str, *values) -> None:
    """Raise ``exc`` unless every entry of ``ok`` holds.

    ``ok`` is a scalar or an array.  The ``{}`` fields of ``message``
    show ``values`` at the first failing entry; a per-day (1-D) check
    appends that entry's day, a (paths, days) check its day and path.
    """
    ok = np.asarray(ok)
    if ok.all():
        return
    at = tuple(int(i) for i in np.unravel_index(int(np.argmin(ok)), ok.shape))
    shown = [float(np.broadcast_to(v, ok.shape)[at]) for v in values]
    where = (f" on day {at[-1]}" if at else "") + (f" of path {at[0]}" if len(at) == 2 else "")
    raise exc(message.format(*shown) + where)
