"""The mpmath reference for L(k, theta), a first-order rounding bound
for its float evaluation, and a whole-grid count of the points where L
is nonnegative."""

import math

import mpmath
import numpy as np

from unimodal_lab.envelope import denominator_gap
from unimodal_lab.kernels import GAP_SERIES_BELOW, theta_grid, threshold_values

U = 2.0**-53  # unit roundoff of a double


def threshold_rounding_bound(k: int, theta: float, value: float, d_theta: float) -> float:
    """Bound on the rounding error of threshold_value near (k, theta).

    `value` is L(k, theta) and d_theta the error in the angle the curve
    is evaluated at (0 when theta is exact). The angle error moves
    s = sin^2(theta/2) by |ds/dtheta| = sin(theta)/2 and q = sin^2(k theta/2)
    by k sin(k theta)/2, and the sine, product and square add a few ulps
    each. The errors are then pushed through num = k^2 s + log1p(-q) and
    g = denominator_gap(s), whose derivatives are 1/(1-q) in q and
    s/(1-s) in s, and through the quotient num/g. g's own rounding depends
    on its branch: below the cutoff s = GAP_SERIES_BELOW the series has
    positive terms and costs a few ulps of g; above it -log1p(-s) - s
    cancels and costs a few ulps of its operands. The bound is relative to g, so it grows as
    the numerator cancels (theta -> 0) and as g blows up (theta -> pi).
    """
    s = math.sin(0.5 * theta) ** 2
    q = math.sin(0.5 * k * theta) ** 2
    g = denominator_gap(s)
    d_s = 0.5 * abs(math.sin(theta)) * d_theta + 4.0 * U * s
    d_q = 0.5 * k * abs(math.sin(k * theta)) * d_theta + 4.0 * U * q + k * theta * U
    d_num = k * k * d_s + d_q / (1.0 - q) + 8.0 * U * (k * k * s + abs(math.log1p(-q)))
    own = g if s < GAP_SERIES_BELOW else abs(math.log1p(-s)) + s
    d_g = d_s * s / (1.0 - s) + 8.0 * U * own
    return (d_num + abs(value) * d_g) / g + 8.0 * U * abs(value)


def mp_threshold(k, theta, digits=40):
    """L(k, theta) straight from its definition, at `digits` digits."""
    with mpmath.workdps(digits):
        t = mpmath.mpf(theta)
        s = mpmath.sin(t / 2) ** 2
        num = k * k * s + mpmath.log(mpmath.cos(k * t / 2) ** 2)
        return num / (-mpmath.log(mpmath.cos(t / 2) ** 2) - s)


def mp_peak(k, theta, digits=50):
    """max L within 1e-3 pi/k of theta, by golden section at `digits` digits.

    The lobe holds one peak, so a bracket around a float argmax holds it
    too; 90 steps shrink the bracket far below the flat top's width.
    """
    with mpmath.workdps(digits):
        w = mpmath.mpf(1e-3) * mpmath.pi / k
        a, b = mpmath.mpf(theta) - w, mpmath.mpf(theta) + w
        r = (mpmath.sqrt(5) - 1) / 2
        c, d = b - r * (b - a), a + r * (b - a)
        yc, yd = mp_threshold(k, c, digits), mp_threshold(k, d, digits)
        for _ in range(90):
            if yc >= yd:
                b, d, yd = d, c, yc
                c = b - r * (b - a)
                yc = mp_threshold(k, c, digits)
            else:
                a, c, yc = c, d, yd
                d = a + r * (b - a)
                yd = mp_threshold(k, d, digits)
        return max(yc, yd)


def count_nonneg_threshold(k: int, lo: float, hi: float, n: int) -> int:
    """Number of grid points where the threshold curve is >= 0."""
    theta = theta_grid(lo, hi, n)
    return int(np.count_nonzero(threshold_values(k, theta) >= 0.0))
