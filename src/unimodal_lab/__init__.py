"""Exact unimodality thresholds and certified envelope maxima for (1+x)^m (1+x^k).

Three layers:

* exactpoly / thresholds: integer and rational arithmetic deciding
  unimodality, strong unimodality, and the sharp m = k^2 - 3 threshold;
* envelope: the variance-envelope membership curve on the unit circle,
  its grid maximization, and membership certificates;
* certmax: a certified enclosure of the limit-shape constant that
  governs the min_m ~ alpha k^4 growth law.

Grid scans run on NumPy in unimodal_lab.kernels, which loads it on the
first grid call, so importing the package does not import NumPy. The
package exports the public names of its four layer modules.
"""

__version__ = "0.1.0"

from . import certmax, envelope, exactpoly, thresholds
from .certmax import *  # noqa: F401,F403
from .envelope import *  # noqa: F401,F403
from .exactpoly import *  # noqa: F401,F403
from .thresholds import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *exactpoly.__all__,
    *thresholds.__all__,
    *envelope.__all__,
    *certmax.__all__,
]
