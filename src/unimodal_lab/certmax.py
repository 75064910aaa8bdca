"""Certified maximization of the limit shape D(z) = 2/z^2 + 2 ln(cos^2 z)/z^4.

D is the k -> infinity profile of the membership threshold curve after
the scaling theta = 2z/k, value / k^4. Its maximum over (pi/2, pi) is
the constant that drives the min_m ~ alpha k^4 growth law, and this
module encloses it from one lemma: D'(z) = -4 p(z)/z^5 with
p(z) = z^2 + z tan z + 2 ln cos^2 z, and p'(z) = 2z - 3 tan z + z sec^2 z
is positive on (pi/2, pi) (tan z < 0 there), so D rises up to the one
root of p and falls after it. A sign-change bracket [a, b] of that root
then encloses alpha by the mean-value theorem (see certified_alpha), so
no sample of D is needed.
Every step raises instead of guessing. D itself is written once, in
kernels; limit_shape evaluates it on floats with libm.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import Refusal, kernels

__all__ = [
    "BracketFailure",
    "Interval",
    "CertifiedMax",
    "limit_shape",
    "shape_deriv_factor",
    "certified_alpha",
]


class BracketFailure(Refusal):
    """Sign-change bracketing or enclosure certification failed."""


class _IntervalFields(NamedTuple):
    lo: float
    hi: float


class Interval(_IntervalFields):
    """Closed interval [lo, hi]."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float) -> "Interval":
        if not lo <= hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        return super().__new__(cls, lo, hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


class CertifiedMax(NamedTuple):
    """Enclosure of the limit-shape maximum on (pi/2, pi)."""

    crit_bracket: Interval
    value_enclosure: Interval
    evaluations: int


def limit_shape(z: float) -> float:
    """D(z) = 2/z^2 + 2 ln(cos^2 z)/z^4; finite at every positive double
    (kernels.limit_shape)."""
    if z <= 0.0:
        raise ValueError(f"z must be positive, got {z}")
    return kernels.limit_shape(z, kernels.SCALAR_OPS)


def shape_deriv_factor(z: float) -> float:
    """p(z) = z^2 + z tan z + 2 ln cos^2 z, sharing the sign of -D'(z).

    D'(z) = -4 p(z) / z^5, and p is strictly increasing on (pi/2, pi)
    (p' = 2z - 3 tan z + z sec^2 z > 0), so D has exactly one critical
    point there: the root of p, a maximum. No double z has cos z = 0
    (kernels.limit_shape), so the log is finite.
    """
    if z <= 0.0:
        raise ValueError(f"z must be positive, got {z}")
    c = math.cos(z)
    return z * z + z * math.tan(z) + 2.0 * math.log(c * c)


_LO = 0.5 * math.pi + 1e-6
_HI = math.pi - 1e-6
_SLACK = 1e-12


def certified_alpha() -> CertifiedMax:
    """Enclose max D on (pi/2, pi).

    p is bisected from (pi/2 + 1e-6, pi - 1e-6) down to a width-1e-10
    bracket [a, b] with p(a) < 0 < p(b); BracketFailure is raised if
    the ends show no such sign change. D rises up to the root of p,
    which lies in [a, b], and falls after it, so max(D(a), D(b)) <= alpha.
    On [a, root], p runs from p(a) up to 0 and z >= a, so
    D' = -4 p/z^5 <= 4 |p(a)|/a^5 and, by the mean-value theorem,
    alpha <= D(a) + 4 (b - a) |p(a)|/a^5. Both bounds are widened by
    1e-12 float slack; the enclosure comes out about 2e-12 wide.
    """
    evals = 0

    def fp(z: float) -> float:
        nonlocal evals
        evals += 1
        return shape_deriv_factor(z)

    a, b = _LO, _HI
    fa, fb = fp(a), fp(b)
    if not (fa < 0.0 < fb):
        raise BracketFailure(f"no sign change: p({a}) = {fa}, p({b}) = {fb}")
    while b - a > 1e-10:
        mid = 0.5 * (a + b)
        if fp(mid) < 0.0:
            a = mid
        else:
            b = mid
    da = limit_shape(a)
    db = limit_shape(b)
    evals += 2
    lower = max(da, db) - _SLACK
    upper = da + 4.0 * (b - a) * abs(fp(a)) / a**5 + _SLACK
    return CertifiedMax(Interval(a, b), Interval(lower, upper), evals)
