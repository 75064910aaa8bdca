"""Certified maximization of the limit shape D(z) = 2/z^2 + 2 ln(cos^2 z)/z^4.

D is the k -> infinity profile of the membership threshold curve after
the scaling theta = 2z/k, value / k^4. Its maximum over (pi/2, pi) is
the constant that drives the min_m ~ alpha k^4 growth law, and this
module encloses it rigorously: a sign-change bracket for the critical
point, sampled true lower bounds, and tangent-line upper bounds for a
concave arc. No step trusts an unverified assumption; every one raises
instead of guessing. D itself is written once, in kernels; limit_shape
evaluates it on floats with libm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import kernels

__all__ = [
    "BracketFailure",
    "PreconditionViolation",
    "Interval",
    "CertifiedMax",
    "limit_shape",
    "shape_deriv_factor",
    "limit_shape_deriv",
    "bracket_critical",
    "tangent_upper_bound",
    "certified_alpha",
]


class BracketFailure(Exception):
    """Sign-change bracketing or enclosure certification failed."""


class PreconditionViolation(Exception):
    """Inputs do not satisfy the slope or concavity preconditions."""


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


@dataclass(frozen=True)
class CertifiedMax:
    """Enclosure of the limit-shape maximum on (pi/2, pi)."""

    crit_bracket: Interval
    value_enclosure: Interval
    evaluations: int


def limit_shape(z: float) -> float:
    """D(z) = 2/z^2 + 2 ln(cos^2 z)/z^4; -inf where cos z = 0."""
    if z <= 0.0:
        raise ValueError(f"z must be positive, got {z}")
    return kernels.limit_shape(z, kernels.SCALAR_OPS)


def shape_deriv_factor(z: float) -> float:
    """p(z) = z^2 + z tan z + 2 ln cos^2 z, sharing the sign of -D'(z).

    D'(z) = -4 p(z) / z^5, and p is strictly increasing on (pi/2, pi),
    so D has exactly one critical point there: the root of p.
    """
    if z <= 0.0:
        raise ValueError(f"z must be positive, got {z}")
    c = math.cos(z)
    c2 = c * c
    if c2 <= 0.0:
        return float("-inf")
    return z * z + z * math.tan(z) + 2.0 * math.log(c2)


def limit_shape_deriv(z: float) -> float:
    """D'(z) = -4 p(z) / z^5."""
    return -4.0 * shape_deriv_factor(z) / z**5


_LO = 0.5 * math.pi + 1e-6
_HI = math.pi - 1e-6


def _bisect_critical(p: Callable[[float], float], tol: float) -> Interval:
    a, b = _LO, _HI
    fa = p(a)
    fb = p(b)
    if not (fa < 0.0 < fb):
        raise BracketFailure(f"no sign change: p({a}) = {fa}, p({b}) = {fb}")
    while b - a > tol:
        mid = 0.5 * (a + b)
        if p(mid) < 0.0:
            a = mid
        else:
            b = mid
    return Interval(a, b)


def bracket_critical(tol: float = 1e-10) -> Interval:
    """Bisect p to a width-tol bracket of the unique critical point.

    Starts from (pi/2 + 1e-6, pi - 1e-6); raises BracketFailure if the
    sign change p(lo) < 0 < p(hi) is absent.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    return _bisect_critical(shape_deriv_factor, tol)


def tangent_upper_bound(
    x1: float,
    x2: float,
    func: Optional[Callable[[float], float]] = None,
    deriv: Optional[Callable[[float], float]] = None,
) -> float:
    """Upper bound for a concave function's max on [x1, x2] via tangents.

    The two tangent lines at x1 and x2 intersect above the graph of any
    concave function, so their intersection height bounds the maximum.
    Preconditions, checked and enforced: deriv(x1) >= 0 >= deriv(x2)
    (the max is interior or at a sampled point) and a nonpositive second
    difference at the endpoints plus midpoint (finite-width concavity
    evidence). Violations raise PreconditionViolation.
    """
    if func is None:
        func = limit_shape
    if deriv is None:
        deriv = limit_shape_deriv
    if not x1 < x2:
        raise ValueError(f"need x1 < x2, got {x1}, {x2}")
    d1 = deriv(x1)
    d2 = deriv(x2)
    if not (d1 >= 0.0 >= d2):
        raise PreconditionViolation(
            f"slopes do not straddle the max: deriv({x1}) = {d1}, deriv({x2}) = {d2}"
        )
    f1 = func(x1)
    f2 = func(x2)
    mid = 0.5 * (x1 + x2)
    fm = func(mid)
    scale = max(1.0, abs(f1), abs(f2), abs(fm))
    if f1 - 2.0 * fm + f2 > 1e-12 * scale:
        raise PreconditionViolation(
            f"second difference positive on [{x1}, {x2}]: not concave at this width"
        )
    if d1 == d2:
        return max(f1, f2)
    x_star = (f2 - f1 + d1 * x1 - d2 * x2) / (d1 - d2)
    return f1 + d1 * (x_star - x1)


_SLACK = 1e-12


def certified_alpha(tol: float = 5e-4) -> CertifiedMax:
    """Enclose max D on (pi/2, pi) to width <= tol.

    The critical point is bisected on p down to a width-1e-10 bracket;
    the lower bound is the best sampled value of D inside that bracket
    (minus 1e-12 float slack) and the upper bound is the tangent
    intersection over it (plus the same slack), so the enclosure comes
    out far tighter than any admissible tol. A guarded coarse scan of
    the whole interval must not beat the certified upper bound,
    otherwise BracketFailure is raised.
    """
    if not tol >= 1e-11:
        raise ValueError(f"tol must be >= 1e-11, got {tol}")
    evals = 0

    def f(z: float) -> float:
        nonlocal evals
        evals += 1
        return limit_shape(z)

    def fp(z: float) -> float:
        nonlocal evals
        evals += 1
        return shape_deriv_factor(z)

    bracket = _bisect_critical(fp, 1e-10)
    a, b = bracket.lo, bracket.hi
    samples = [a + (b - a) * (j / 64.0) for j in range(65)]
    lower = max(f(z) for z in samples) - _SLACK
    upper = (
        tangent_upper_bound(a, b, func=f, deriv=lambda z: -4.0 * fp(z) / z**5)
        + _SLACK
    )
    if upper - lower > tol:  # pragma: no cover - defensive
        raise BracketFailure(f"enclosure width {upper - lower} exceeds tol {tol}")
    coarse, coarse_z = kernels.grid_max_limit_shape(_LO, _HI, 10_000)
    if coarse > upper:
        raise BracketFailure(
            f"coarse scan found D({coarse_z}) = {coarse} above certified bound {upper}"
        )
    return CertifiedMax(bracket, Interval(lower, upper), evals)
