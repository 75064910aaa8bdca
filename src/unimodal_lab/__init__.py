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

Importing the package executes none of its layers. Each of kernels,
exactpoly, thresholds, envelope and certmax is registered in sys.modules
and bound here by importlib.util.LazyLoader, and compiled and executed
on its first attribute access; the exported names are served by the
module __getattr__ (PEP 562) from the layer that defines them. A CLI
process therefore runs only the layers its command calls: --version
none, check exactpoly and thresholds, certmax certmax and kernels.
`from unimodal_lab import kernels` only binds the registered module;
`from unimodal_lab.kernels import backend`, like any attribute read,
executes it.
"""

__version__ = "0.1.0"

# each layer's __all__, in the order of the package's __all__;
# tests/test_package.py checks them against the layers themselves
_LAYER_NAMES = {
    "exactpoly": [
        "FamilyParams", "CoeffSeq", "UnimodalReport", "binomial", "coefficient", "expand_family",
        "poly_mul", "is_unimodal", "is_strongly_unimodal", "unimodal_report", "family_report",
        "OutOfRange",
    ],
    "thresholds": [
        "NotFoundError", "ThresholdResult", "BetaProbe", "InequalityProbe", "predicted_threshold",
        "central_ratio_odd", "central_ratio_even", "ratio_vs_coefficients", "a_of_u", "c_plus",
        "c_minus", "beta_exact", "inequality_one_probe", "inequality_probes",
        "case_polynomial_probe", "u_range", "minimal_m", "scan_thresholds", "generic_min_N",
    ],
    "envelope": [
        "ReductionViolation", "Inconclusive", "VarianceInput", "ThetaScan", "ThresholdMax",
        "MembershipCertificate", "SandwichReport", "variance", "poly_eval_circle",
        "envelope_defect", "defect_general", "product_identity_residual", "denominator_gap",
        "smooth_part", "threshold_value", "max_threshold", "membership_certificate",
        "quartic_floor_check", "sandwich_bounds", "sandwich_check",
    ],
    "certmax": [
        "BracketFailure", "Interval", "CertifiedMax", "limit_shape", "shape_deriv_factor",
        "certified_alpha",
    ],
}
_HOME = {name: layer for layer, names in _LAYER_NAMES.items() for name in names}

__all__ = ["__version__", *_HOME]


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


def __getattr__(name: str):
    # only an exported name executes its layer; any other name, a dunder
    # or a submodule such as cli that `from unimodal_lab import cli` probes
    # before importing it, fails without executing any layer
    layer = _HOME.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__():
    return sorted({*globals(), *__all__})
