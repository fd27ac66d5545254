"""Mean-reverting volatility-index model: futures pricing, calibration,
and index-tracking futures portfolios (static and dynamic).

The package exports the ``__all__`` of each layer module, and nothing
else.  scipy is imported only inside the functions that call it, so the
package imports with numpy alone."""

__version__ = "0.1.0"

from . import analytics, calibrate, data, dynamic, errors, model, simulate, static
from .analytics import *
from .calibrate import *
from .data import *
from .dynamic import *
from .errors import *
from .model import *
from .simulate import *
from .static import *

_LAYERS = (analytics, calibrate, data, dynamic, errors, model, simulate, static)
__all__ = [name for layer in _LAYERS for name in layer.__all__]
