"""NumPy grid kernels for the threshold curve and the limit shape.

Every grid scan in the package runs here, and this module holds the only
array forms of the threshold curve L(k, theta), the singular-angle guard
and the limit shape D(z). The scalar evaluators envelope.threshold_value
and certmax.limit_shape keep the same branch structure; they drive the
golden-section and bisection refinements and serve as test references.

Semantics: right-closed grids theta_i = lo + (hi - lo) * (i / n) for
i = 1..n, a guard that masks points within `guard` of the nearest odd
multiple of pi/k, -inf sentinels where the curve diverges, and ties
broken toward the first grid index.
"""

from __future__ import annotations

import math

import numpy as np


def backend() -> str:
    """Name of the grid lane, reported in CLI output: always "pure"."""
    return "pure"


def theta_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """Right-closed grid lo + (hi - lo) * (i / n) for i = 1..n."""
    i = np.arange(1, n + 1, dtype=np.float64)
    return lo + (hi - lo) * (i / n)


def guard_mask(theta: np.ndarray, k: int, guard: float) -> np.ndarray:
    """True where theta lies within guard of the nearest odd multiple of pi/k."""
    u = theta * k / np.pi
    o = 2.0 * np.floor((u - 1.0) / 2.0 + 0.5) + 1.0
    return np.abs(u - o) * (np.pi / k) < guard


def threshold_values(k: int, theta: np.ndarray) -> np.ndarray:
    """L(k, theta) elementwise; -inf where the curve diverges."""
    half = 0.5 * theta
    s = np.sin(half)
    s = s * s
    sk = np.sin(k * half)
    sk2 = sk * sk
    bad = (s >= 1.0) | (sk2 >= 1.0)
    s_c = np.where(s >= 1.0, 0.5, s)
    sk2_c = np.where(sk2 >= 1.0, 0.0, sk2)
    num = (k * k) * s_c + np.log1p(-sk2_c)
    den_series = s_c * s_c * (0.5 + s_c * (1.0 / 3.0 + s_c * (0.25 + s_c * 0.2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        den_log = -np.log1p(-s_c) - s_c
    den = np.where(s_c < 1e-4, den_series, den_log)
    return np.where(bad, -np.inf, num / den)


def limit_shape_values(z: np.ndarray) -> np.ndarray:
    """D(z) = 2/z^2 + 2 ln(cos^2 z)/z^4 elementwise; -inf where cos z = 0."""
    c = np.cos(z)
    c2 = c * c
    bad = c2 <= 0.0
    c2s = np.where(bad, 1.0, c2)
    z2 = z * z
    vals = 2.0 / z2 + 2.0 * np.log(c2s) / (z2 * z2)
    return np.where(bad, -np.inf, vals)


def grid_max_threshold(
    k: int, lo: float, hi: float, n: int, guard: float
) -> tuple[float, float]:
    """Max of the threshold curve over the guarded grid; (-inf, nan) if empty."""
    theta = theta_grid(lo, hi, n)
    vals = threshold_values(k, theta)
    if guard > 0.0:
        vals = np.where(guard_mask(theta, k, guard), -np.inf, vals)
    i = int(np.argmax(vals))
    v = float(vals[i])
    if not math.isfinite(v):
        return float("-inf"), float("nan")
    return v, float(theta[i])


def grid_min_margin(
    m: float, k: int, lo: float, hi: float, n: int, guard: float
) -> tuple[float, float]:
    """Min of m - threshold over the guarded grid; (+inf, nan) if empty."""
    theta = theta_grid(lo, hi, n)
    margin = m - threshold_values(k, theta)
    if guard > 0.0:
        margin = np.where(guard_mask(theta, k, guard), np.inf, margin)
    i = int(np.argmin(margin))
    v = float(margin[i])
    if not math.isfinite(v):
        return float("inf"), float("nan")
    return v, float(theta[i])


def count_nonneg_threshold(k: int, lo: float, hi: float, n: int, guard: float) -> int:
    """Number of unguarded grid points where the threshold curve is >= 0."""
    theta = theta_grid(lo, hi, n)
    keep = threshold_values(k, theta) >= 0.0
    if guard > 0.0:
        keep &= ~guard_mask(theta, k, guard)
    return int(np.count_nonzero(keep))


def grid_max_limit_shape(lo: float, hi: float, n: int) -> tuple[float, float]:
    """Max of the limit shape over a right-closed grid; (-inf, nan) if empty."""
    z = theta_grid(lo, hi, n)
    vals = limit_shape_values(z)
    j = int(np.argmax(vals))
    v = float(vals[j])
    if not math.isfinite(v):
        return float("-inf"), float("nan")
    return v, float(z[j])
