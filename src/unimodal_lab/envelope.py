"""Variance envelope on the unit circle and the membership threshold curve.

For an entire f with f(1) = 1, write V(f) = f''(1) + f'(1) - f'(1)^2 and

    H(f)(theta) = exp(-V(f) |1 - z|^2) - |f(z)|^2,   z = exp(i theta).

Functions with H(f) >= 0 everywhere form the class of interest; V is
additive over products and H obeys a two-term product identity, so the
normalized family f(z) = ((1+z)/2)^m (1+z^k)/2 reduces to a scalar
curve: H >= 0 at theta exactly when m >= threshold_value(k, theta).
No command evaluates V or H: they, the product identity and the
quartic floor are checked in tests/oracles.py.
The family has real coefficients, so |f(conj z)| = |f(z)|, and the curve
is symmetric under theta -> 2 pi - theta: L(k, theta) = L(k, 2 pi - theta).
Membership is therefore the one comparison m >= max L over (0, pi).
That maximum lives in the lobe (pi/k, 2 pi/k] (proof in max_threshold).
max_threshold locates the lobe maximum on a grid and refines it by
golden section; membership_certificate decides the margin m - max L
against that one peak, so no code here evaluates L outside
[pi/k, 2 pi/k]. The curve has no theta -> pi - theta symmetry:
L(k, 0+) = -(k^4 + 2 k^2)/3, while L(k, pi-) tends (logarithmically)
to 0 for even k and to -1 for odd k.

The curve and its denominator gap are written once, in kernels;
threshold_value evaluates the curve on floats with libm.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from . import OutOfRange, kernels

__all__ = [
    "ThetaScan",
    "ThresholdMax",
    "MembershipCertificate",
    "SandwichReport",
    "threshold_value",
    "max_threshold",
    "membership_certificate",
    "sandwich_bounds",
    "sandwich_check",
]


def threshold_value(k: int, theta: float) -> float:
    """The membership threshold curve L(k, theta).

    H(m, k, .) >= 0 at theta iff m >= L(k, theta). Evaluates the one
    formula kernels.threshold on floats; returns -inf where the curve
    diverges to -inf (the singular angles). Where sin^2(theta/2) rounds
    to 1, theta within about 2e-8 of pi, the -inf is a sentinel, not the
    curve's value, which tends logarithmically to 0 (even k) or -1
    (odd k) there.

    Near theta = 0 the value loses accuracy: the numerator
    k^2 s + log1p(-q) cancels to about L gap(s), with gap(s) ~ theta^4/32,
    from terms of size k^2 theta^2/4, so the rounding error grows like
    1/theta^2. At k = 9, where L(k, 0+) = -2241, it reads -2241.14 at
    theta = 1e-6, -1262.2 at 1e-8 and +7.7e6 at 1e-10. No verdict
    evaluates the curve outside the lobe (pi/k, 2 pi/k]: max_threshold
    and sandwich_check scan only the lobe, and the certificates reuse
    max_threshold's peak.

    L depends on theta only through sin^2(theta/2) and sin^2(k theta/2),
    both unchanged by theta -> 2 pi - theta (|f(conj z)| = |f(z)| for real
    coefficients), so L(k, theta) = L(k, 2 pi - theta) and (0, pi) is the
    whole search domain. There is no theta -> pi - theta symmetry: the
    series at 0 gives L(k, 0+) = -(k^4 + 2 k^2)/3, whereas L(k, pi-) tends
    logarithmically to 0 for even k and to -1 for odd k.
    """
    return kernels.threshold(k, theta, kernels.SCALAR_OPS)


class _ThetaScanFields(NamedTuple):
    k: int
    grid_points: int


class ThetaScan(_ThetaScanFields):
    """Scan configuration for the threshold curve.

    The grid is right-closed on the lobe (pi/k, 2 pi/k] and masks no
    point: next to the singular angle pi/k, where L diverges to -inf, L
    is negative (max_threshold). The peak is refined to float
    resolution, so the grid size is the only setting.
    """

    __slots__ = ()

    def __new__(cls, k: int, grid_points: int = 100_000) -> "ThetaScan":
        if not isinstance(k, int) or k < 2:
            raise ValueError(f"k must be an integer >= 2, got {k!r}")
        if grid_points < 1000:
            raise ValueError(f"grid_points must be >= 1000, got {grid_points}")
        return super().__new__(cls, k, grid_points)


class ThresholdMax(NamedTuple):
    """Refined maximum of the threshold curve for one k, found on a lobe
    grid of grid_points points."""

    k: int
    max_value: float
    argmax_theta: float
    min_m: int
    ratio_k4: float
    near_integer: bool
    grid_points: int


class MembershipCertificate(NamedTuple):
    """Membership verdict for one (m, k) against a max_threshold peak.

    min_margin is m - peak.max_value, witness_theta the peak's
    argmax_theta and grid_points the size of the lobe grid that found
    it; member is min_margin >= 0.
    """

    m: int
    k: int
    member: bool
    min_margin: float
    witness_theta: float
    grid_points: int


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _golden_max(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    # golden-section maximization to float resolution: each step moves one
    # end strictly inward, so it ends once the bracket holds no two distinct
    # interior floats; returns the better last probe as (x, f(x))
    c = a + _INVPHI2 * (b - a)
    d = a + _INVPHI * (b - a)
    yc = f(c)
    yd = f(d)
    while a < c < d < b:
        if yc >= yd:
            b, d, yd = d, c, yc
            c = a + _INVPHI2 * (b - a)
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INVPHI * (b - a)
            yd = f(d)
    return (c, yc) if yc >= yd else (d, yd)


# the largest k whose float verdict is checked against a proven enclosure
# of max L at every k (tests/proven_peak.py); k is compared as an integer,
# so the test cannot overflow
_K_VERIFIED = 1000


def max_threshold(scan: ThetaScan) -> ThresholdMax:
    """Locate max of the threshold curve over (pi/k, 2 pi/k], certified.

    Pipeline: right-closed grid scan of the lobe, then golden-section
    refinement around the best grid point, run until the bracket holds
    no two distinct interior floats. The lobe carries the maximum over
    (0, pi) by two lemmas:

    * On (0, pi/k), L < 0. With x = k theta/2 < pi/2, the numerator
      k^2 sin^2(theta/2) + ln cos^2 x is negative, since
      k^2 sin^2(theta/2) < x^2 <= -ln cos^2 x by cos x <= exp(-x^2/2).
    * On (2 pi/k, pi),
      L <= k^2 s/gap(s) < k^2 s1/gap(s1) = L(k, 2 pi/k), with
      s = sin^2(theta/2) and s1 = sin^2(pi/k), because the log part is
      <= 0, vanishes at 2 pi/k (ln cos^2 pi = 0), and
      s/gap(s) = 1/sum_{n>=2} s^(n-1)/n decreases in s. The point
      2 pi/k lies in the right-closed lobe, so the tail never beats the
      lobe maximum. The tail is empty at k = 2.

    Neither lemma needs k to be large, so the reduction is exact at every
    k >= 2.

    No grid point next to the singular angle pi/k holds the peak either,
    so the scan masks none. For |theta - pi/k| <= 1e-8 pi/k, put
    z = k theta/2: then k^2 sin^2(theta/2) < z^2 < 2.47, while
    |cos z| <= |z - pi/2| <= 1.6e-8 gives ln cos^2 z < -35.9, so the
    numerator of L is negative and, the gap being positive, L < 0. The
    computed value keeps the sign. The scan and the refinement compute
    every value in libm, so only libm is assumed accurate: with
    u = 2^-53, and sin within 4 ulp (relative 8u),
    q^ = fl(sin(fl(z))^2) is within 17.01 u of sin^2 fl(z), and fl(z)
    moves sin^2, whose slope is at most 1, by at most u z; so 1 - q^ is
    within (17.01 + z) u < 2.1e-15 of cos^2 z, and log1p(-q^) < -33, or
    q^ rounds to 1 and L is the -inf sentinel.

    The grid peak, kernels.grid_max_threshold, is never the -inf sentinel
    and is positive: its zoom returns at least every value it evaluates,
    and on n >= 1000 points at 2 <= k <= _K_VERIFIED its first samples
    hold a point where libm's L is finite and positive. They include
    index n, for k >= 3 the angle 2 pi/k to within an ulp: there
    s^ = sin^2(pi/k) lies in [9.8e-6, 3/4], so the gap is a positive
    normal float, and q^ is about 1.5e-32, so L is k^2 s^/gap(s^) > 0 to
    rounding. At k = 2 index n is pi, where s^ rounds to 1 (the
    sentinel), but the first samples step by a power of two h with
    (n - 1)/64 <= h < (n - 1)/32 + 2, so the third sample from the end
    lies in (pi - pi/16, pi - pi/128), where s^ < 1 and the numerator
    4 s + ln cos^2 theta exceeds 4 sin^2(3 pi/8) - ln 2 > 2.7.

    min_m = ceil(max L) is the least integer m that is a member, proven
    for 2 <= k <= _K_VERIFIED = 1000 only; above it unimodal_lab.OutOfRange
    is raised before any scan. At every k there ceil of the float peak
    equals the m(k) of a proven interval enclosure of max L
    (tests/proven_peak.py), and the peak lies at least 7.92e-4 from its
    nearest integer (the least is at k = 393, on grids of 10^3, 10^5 and
    10^6 points), while its float error is at most 4.4 % of that distance
    (the most at k = 756: 4.4e-5 against 9.9e-4). So a last-bit change in
    libm cannot move min_m, and near_integer, a peak within 1e-6
    of an integer, is false at every such k. Above k = 1000 the float
    peak is off by a few ulp of max L, and from k = 2480 that moves
    ceil(max L).
    """
    k = scan.k
    n = scan.grid_points
    if k > _K_VERIFIED:
        raise OutOfRange(f"the envelope verdict is proven only for k <= {_K_VERIFIED}")
    lo, hi = math.pi / k, 2.0 * math.pi / k
    grid_val, grid_theta = kernels.grid_max_threshold(k, lo, hi, n)
    # refine within one grid step of the best grid point, which stays if
    # it is better
    step = (hi - lo) / n
    theta, top = _golden_max(
        lambda th: threshold_value(k, th), max(grid_theta - step, lo), min(grid_theta + step, hi)
    )
    if top < grid_val:
        theta, top = grid_theta, grid_val
    near = abs(top - round(top)) < 1e-6
    return ThresholdMax(k, top, theta, math.ceil(top), top / k**4, near, n)


def _check_m(m: int) -> None:
    # the margin m - max L is a float, so m must convert to one; the
    # int/float comparison is exact
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    if m > sys.float_info.max:
        raise ValueError(f"m must be at most sys.float_info.max, got {m.bit_length()} bits")


def membership_certificate(m: int, peak: ThresholdMax) -> MembershipCertificate:
    """Decide whether (m, peak.k) is in the class from the margin m - max L.

    peak is max_threshold's result for k: its max_value is max L over
    (0, pi), by the lobe reduction proven there, so the certificate scans
    nothing. The verdict is the sign of the margin m - peak.max_value,
    and witness_theta, the peak's argmax, locates a violation. max_threshold
    refuses k above 1000, and there the peak lies at least 7.92e-4 from
    every integer with a float error of at most 4.4 % of that distance,
    so the sign is that of m - max L at every integer m.
    """
    _check_m(m)
    margin = m - peak.max_value
    return MembershipCertificate(
        m, peak.k, margin >= 0.0, margin, peak.argmax_theta, peak.grid_points
    )


class SandwichReport(NamedTuple):
    """Pointwise comparison against the limit shape.

    For theta in (pi/k, 2 pi/k) and z = k theta / 2, the limit shape
    D(z) should squeeze L/k^4 between D/(1 + 8/k^2) and D. Violations
    are counted, not asserted away: the lower squeeze genuinely fails
    near theta = pi/k, where the log part blows up faster than the
    8/k^2 slack absorbs. The max-level sandwich (the quantity that
    matters for min_m scaling) is sandwich_bounds.
    """

    k: int
    grid_points: int
    upper_ok: bool
    lower_ok: bool
    n_upper_violations: int
    n_lower_violations: int


def _squeeze(k: int) -> float:
    # the lower sandwich divisor 1 + 8/k^2
    return 1.0 + 8.0 / (k * k)


def sandwich_bounds(k: int, alpha_lo: float, alpha_hi: float) -> tuple[float, float]:
    """Max-level sandwich on max(L)/k^4 from a limit-shape enclosure.

    Returns (alpha_lo/(1 + 8/k^2) - 1e-9, alpha_hi + 1e-9).
    """
    return alpha_lo / _squeeze(k) - 1e-9, alpha_hi + 1e-9


def sandwich_check(k: int, grid_points: int = 10_000) -> SandwichReport:
    """Compare L/k^4 against the limit-shape sandwich on (pi/k, 2 pi/k).

    Pointwise slack is 1e-9 absolute on the ratio scale, on a grid of
    max(grid_points, 1000) points; the violations of each kind are
    counted, not kept. The grid is walked in blocks of kernels.GRID_BLOCK
    points, so memory does not grow with grid_points.
    """
    n = max(grid_points, 1000)
    k4 = float(k) ** 4
    n_up = n_dn = 0
    for theta in kernels.theta_blocks(math.pi / k, 2.0 * math.pi / k, n):
        ratio = kernels.threshold_values(k, theta) / k4
        d = kernels.limit_shape_values(0.5 * k * theta)
        n_up += int((ratio > d + 1e-9).sum())
        n_dn += int((ratio < d / _squeeze(k) - 1e-9).sum())
    return SandwichReport(k=k, grid_points=n, upper_ok=n_up == 0, lower_ok=n_dn == 0,
                          n_upper_violations=n_up, n_lower_violations=n_dn)
