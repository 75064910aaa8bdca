"""Exact unimodality thresholds and certified envelope maxima for (1+x)^m (1+x^k).

Three layers:

* exactpoly / thresholds: integer and rational arithmetic deciding
  unimodality, strong unimodality, and the sharp m = k^2 - 3 threshold;
* envelope: the variance-envelope membership curve on the unit circle,
  its grid maximization, and membership certificates;
* certmax: a certified enclosure of the limit-shape constant that
  governs the min_m ~ alpha k^4 growth law.

Every printed float comes from libm. NumPy only counts the sandwich
violations of eclass, in unimodal_lab.kernels, which loads it on the
first array-lane call, so importing the package does not import NumPy,
and no other command does either. The
package exports only its layer modules, __version__, Refusal and
OutOfRange; each layer's public names are read from the layer.

Importing the package executes none of its layers. Each of kernels,
exactpoly, thresholds, envelope and certmax is registered in sys.modules
and bound here by importlib.util.LazyLoader, and compiled and executed
on its first attribute access. A CLI process therefore runs only the
layers its command calls: --version none, check exactpoly and
thresholds, certmax certmax and kernels. `from unimodal_lab import
kernels` only binds the registered module; `from unimodal_lab.kernels
import backend`, like any attribute read, executes it.
"""

__version__ = "0.1.0"


class Refusal(Exception):
    """A layer declines to give a verdict; the CLI exits with exit_code.

    Defined here, not in a layer, so that catching it executes no layer.
    """

    exit_code = 3
    label = "certification failure"


class OutOfRange(Refusal):
    """An input lies beyond the range a layer gives a verdict for:
    exactpoly.check_window at m + k >= 2^49, a bound on the work of
    family_report's exact scan, and envelope.max_threshold at k > 1000, the
    range its float verdict is checked over against a proven enclosure
    of the peak."""


def _lazy(name: str):
    # the importlib documentation's recipe "Implementing lazy imports";
    # imported here, so that dir() lists no helper module
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


kernels = _lazy("kernels")
exactpoly = _lazy("exactpoly")
thresholds = _lazy("thresholds")
envelope = _lazy("envelope")
certmax = _lazy("certmax")
