"""The threshold curve, the denominator gap and the limit shape, and the
NumPy grid kernels that scan them.

Each formula is written once, as a function of its argument and an ops
namespace that supplies sin, cos, log, log1p, where and select:
SCALAR_OPS (libm through math) for the scalar evaluators
envelope.threshold_value, envelope.denominator_gap and
certmax.limit_shape, which drive the golden-section and bisection
refinements, and ARRAY_OPS (NumPy) for the grids. The lanes stay apart
because NumPy's log1p and libm's differ in the last bit on some inputs,
and the CLI prints scalar results to 17 digits. Both branches of every
where are evaluated, so the formulas clamp their arguments before any
log and select the -inf sentinels last. select(c, a, b) takes its
branches as thunks and runs only those some element of c needs: the
scalar lane runs one, the array lane both only for a mixed c.

Grid semantics: right-closed grids theta_i = lo + (hi - lo) * (i / n)
for i = 1..n, a guard that masks points within `guard` of the nearest
odd multiple of pi/k, -inf sentinels where the curve diverges, and ties
broken toward the first grid index.

grid_max_threshold walks i = 1..n in blocks of GRID_BLOCK points, so its
working set is a few cache-sized arrays at any n. It keeps a running
(value, theta) that a later block replaces only with a strictly larger
value, and it masks only the blocks that may hold a guarded point, so
its result is bit for bit that of the whole-grid argmax.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np


def _array_select(c, a, b):
    if c.all():
        return a()
    if not c.any():
        return b()
    return np.where(c, a(), b())


SCALAR_OPS = SimpleNamespace(
    sin=math.sin,
    cos=math.cos,
    log=math.log,
    log1p=math.log1p,
    where=lambda c, a, b: a if c else b,
    select=lambda c, a, b: a() if c else b(),
)
ARRAY_OPS = SimpleNamespace(
    sin=np.sin,
    cos=np.cos,
    log=np.log,
    log1p=np.log1p,
    where=np.where,
    select=_array_select,
)


GAP_SERIES_BELOW = 1e-2


def gap(s, ops):
    """-log1p(-s) - s for 0 <= s < 1, via its series for s < GAP_SERIES_BELOW.

    The subtraction loses about u/s relative to cancellation (<= 2e-14
    above the cutoff), so below it the series s^2 (1/2 + s/3 + ... + s^7/9)
    is used instead (first dropped term < 2e-17 relative), by Horner in
    place.
    """

    def series():
        acc = s / 9.0
        for n in range(8, 1, -1):
            acc += 1.0 / n
            acc *= s
        acc *= s
        return acc

    return ops.select(s < GAP_SERIES_BELOW, series, lambda: -ops.log1p(-s) - s)


def threshold(k, theta, ops):
    """L(k, theta) = (k^2 s + ln(1 - q)) / gap(s); -inf where s or q rounds to 1.

    s = sin^2(theta/2) and q = sin^2(k theta/2).
    """
    half = 0.5 * theta
    s = ops.sin(half)
    s = s * s
    sk = ops.sin(k * half)
    sk2 = sk * sk
    bad = (s >= 1.0) | (sk2 >= 1.0)
    s_c = ops.where(s >= 1.0, 0.5, s)
    sk2_c = ops.where(sk2 >= 1.0, 0.0, sk2)
    num = (k * k) * s_c + ops.log1p(-sk2_c)
    return ops.where(bad, -math.inf, num / gap(s_c, ops))


def limit_shape(z, ops):
    """D(z) = 2/z^2 + 2 ln(cos^2 z)/z^4; -inf where cos z = 0."""
    c = ops.cos(z)
    c2 = c * c
    bad = c2 <= 0.0
    c2s = ops.where(bad, 1.0, c2)
    z2 = z * z
    return ops.where(bad, -math.inf, 2.0 / z2 + 2.0 * ops.log(c2s) / (z2 * z2))


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
    return threshold(k, theta, ARRAY_OPS)


def limit_shape_values(z: np.ndarray) -> np.ndarray:
    """D(z) elementwise; -inf where cos z = 0."""
    return limit_shape(z, ARRAY_OPS)


GRID_BLOCK = 16_384


def _may_guard(t0: float, t1: float, k: int, guard: float) -> bool:
    """False only if guard_mask masks no theta between t0 and t1.

    u = theta * k / pi is rounded by the same two correctly rounded
    operations here as in guard_mask, and each is monotone in theta, so
    every u guard_mask computes for a theta between t0 and t1 lies between
    u(t0) and u(t1): the rounding of u needs no slack. A masked point has
    |u - o| * (pi/k) < guard for an odd integer o (|u| < 2^52), with
    pi/k, u - o and the product each rounded, so in exact arithmetic
    |u - o| < (guard k/pi)(1 + 4 eps), eps = 2^-53. The slack is a
    factor 2 on that radius, r = 2 guard k/pi, which its own two
    roundings cannot bring below (1 + 4 eps) guard k/pi. The test is
    whether the least odd integer >= u_lo - r is <= u_hi + r; rounding in
    those sums and in the least-odd step only widens the test, since
    round-to-nearest is monotone and never crosses an integer.
    """
    u0 = t0 * k / math.pi
    u1 = t1 * k / math.pi
    r = 2.0 * guard * k / math.pi
    a, b = min(u0, u1) - r, max(u0, u1) + r
    return 2.0 * math.ceil((a - 1.0) / 2.0) + 1.0 <= b


def grid_max_threshold(
    k: int, lo: float, hi: float, n: int, guard: float
) -> tuple[float, float]:
    """Max of the threshold curve over the guarded grid; (-inf, nan) if empty.

    A NaN value empties the result, as it does in np.argmax over the whole
    grid.
    """
    best_v, best_t = -math.inf, math.nan
    width = hi - lo
    for start in range(1, n + 1, GRID_BLOCK):
        i = np.arange(start, min(start + GRID_BLOCK, n + 1), dtype=np.float64)
        theta = lo + width * (i / n)
        vals = threshold_values(k, theta)
        if guard > 0.0 and _may_guard(float(theta[0]), float(theta[-1]), k, guard):
            vals = np.where(guard_mask(theta, k, guard), -np.inf, vals)
        j = int(np.argmax(vals))
        v = float(vals[j])
        if math.isnan(v):
            return float("-inf"), float("nan")
        if v > best_v:
            best_v, best_t = v, float(theta[j])
    if not math.isfinite(best_v):
        return float("-inf"), float("nan")
    return best_v, best_t


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


def grid_max_limit_shape(lo: float, hi: float, n: int) -> tuple[float, float]:
    """Max of the limit shape over a right-closed grid; (-inf, nan) if empty."""
    z = theta_grid(lo, hi, n)
    vals = limit_shape_values(z)
    j = int(np.argmax(vals))
    v = float(vals[j])
    if not math.isfinite(v):
        return float("-inf"), float("nan")
    return v, float(z[j])
