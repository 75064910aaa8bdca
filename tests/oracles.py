"""Reference forms of the paper's identities, which no command runs.

The tests and the acceptance lines check the package against these.
Each is written out from the identity it checks, and reuses from the
package only argument checks and the pieces that identity is stated in:
kernels.gap, exactpoly.poly_mul, thresholds.a_of_u and the unreduced
terms of c+, c- and B.

Theorem 1, the exact threshold m = k^2 - 3 for (1+x)^m (1+x^k):

* binomial and coefficient give c(u) = C(m, u) + C(m, u-k) one at a
  time. expand_family's row, family_report's neighbour ratios and
  thresholds.ratio_vs_coefficients are checked against them.
* c_plus and c_minus are the one-step factors a(u+1)/a(u) and
  a(u-1)/a(u) of a(u) = C(m, u-k)/C(m, u) at m = k^2 - 3, in closed
  form. thresholds.inequality_probes carries a(u) from row to row by
  the first.
* beta_exact is the log-concavity defect
  beta(u) = c(u)^2 / (c(u+1) c(u-1)) at m = k^2 - 3, and its
  factorization beta = B * A into a binomial part and an a-part.

Section 2, the variance envelope of f(z) = ((1+z)/2)^m (1+z^k)/2, whose
least member m grows like alpha k^4:

* variance is V(f) = f''(1) + f'(1) - f'(1)^2, exact, which is additive
  over products of normalized factors.
* envelope_defect, defect_general and poly_eval_circle give
  H(f)(theta) = exp(-V(f) |1 - z|^2) - |f(z)|^2, for the family and for
  any coefficient vector. H >= 0 exactly when m >= L(k, theta).
* product_identity_residual checks the two-term product identity
  H(fg) = exp(-V(f) |1 - z|^2) H(g) + |g|^2 H(f), which reduces
  membership to the scalar curve L.
* denominator_gap and smooth_part are gap(s) = -log1p(-s) - s and
  k^2 s / gap(s), s = sin^2(theta/2): L <= smooth_part, with equality at
  the multiples of 2 pi/k, is the tail lemma of envelope.max_threshold.
* quartic_floor_check is the small-angle floor
  gap(sin^2 psi) >= psi^4 / 2.
* theta_grid is a whole right-closed lobe grid as one NumPy array, which
  kernels.theta_blocks and the lobe zoom must reproduce bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from unimodal_lab import exactpoly, kernels
from unimodal_lab.exactpoly import _check_family, _require_k
from unimodal_lab.kernels import _grid_angles
from unimodal_lab.thresholds import _b_factor, _c_terms, a_of_u


# Theorem 1


def binomial(n: int, r: int) -> int:
    """C(n, r), with the convention that out-of-range r gives 0."""
    return math.comb(n, r) if r >= 0 else 0


def coefficient(m: int, k: int, u: int) -> int:
    """Coefficient of x^u in (1+x)^m (1+x^k): C(m, u) + C(m, u-k)."""
    _check_family(m, k)
    return binomial(m, u) + binomial(m, u - k)


def _require_interior(k: int, u: int) -> None:
    _require_k(k)
    if u < k or u > k * k - 4:
        raise ValueError(f"u must lie in [{k}, {k * k - 4}] for k={k}, got {u}")


def c_plus(k: int, u: int) -> Fraction:
    """One-step growth factor a(u+1)/a(u) at m = k^2 - 3, in closed form."""
    _require_interior(k, u)
    p, q, _, _ = _c_terms(k, u)
    return Fraction(p, q)


def c_minus(k: int, u: int) -> Fraction:
    """One-step decay factor a(u-1)/a(u) at m = k^2 - 3, in closed form.

    Equals 1 - k(k^2-2) / (u (k^2-u+k-2)), and vanishes at u = k, where
    a(k-1) = 0.
    """
    _require_interior(k, u)
    _, _, p, q = _c_terms(k, u)
    return Fraction(p, q)


class BetaProbe(NamedTuple):
    """Log-concavity defect beta(u) and its two-factor decomposition."""

    k: int
    u: int
    beta: Fraction
    b_factor: Optional[Fraction]
    a_factor: Optional[Fraction]
    factorization_ok: Optional[bool]


def beta_exact(k: int, u: int) -> BetaProbe:
    """beta(u) = c(u)^2 / (c(u+1) c(u-1)) for the family at m = k^2 - 3.

    For 1 <= u <= k^2 - 4 the decomposition beta = B * A is also computed,
    where B is the pure binomial ratio and A = (1+a(u))^2 / ((1+a(u+1))
    (1+a(u-1))); factorization_ok records whether the product reproduces
    beta exactly.
    """
    _require_k(k)
    m = k * k - 3
    if u < 1 or u > m + k - 1:
        raise ValueError(f"u must lie in [1, {m + k - 1}] for k={k}, got {u}")
    cu = coefficient(m, k, u)
    cp = coefficient(m, k, u + 1)
    cm = coefficient(m, k, u - 1)
    beta = Fraction(cu * cu, cp * cm)
    if u <= m - 1:
        b = _b_factor(k, u)
        one = Fraction(1)
        a = (one + a_of_u(k, u)) ** 2 / ((one + a_of_u(k, u + 1)) * (one + a_of_u(k, u - 1)))
        return BetaProbe(k, u, beta, b, a, b * a == beta)
    return BetaProbe(k, u, beta, None, None, None)


# Section 2


def _normalized(coeffs: Sequence) -> tuple:
    # the exact coefficients scaled to f(1) = 1
    vals = [Fraction(c) for c in coeffs]
    total = sum(vals)
    if total == 0:
        raise ValueError("cannot normalize: coefficients sum to 0")
    return tuple(c / total for c in vals)


def variance(coeffs: Sequence) -> Fraction:
    """V(f) = f''(1) + f'(1) - f'(1)^2, exact, for f = sum c_u z^u
    normalized to f(1) = 1.

    It is m/4 for ((1+z)/2)^m and k^2/4 for (1+z^k)/2, and additive over
    products of normalized factors.
    """
    c = _normalized(coeffs)
    d1 = sum(u * x for u, x in enumerate(c))
    d2 = sum(u * (u - 1) * x for u, x in enumerate(c))
    return d2 + d1 - d1 * d1


def poly_eval_circle(coeffs: Sequence[float], theta: float) -> complex:
    """Evaluate sum c_u z^u at z = exp(i theta) by Horner."""
    import cmath

    z = cmath.exp(1j * theta)
    acc = 0j
    for c in reversed(list(coeffs)):
        acc = acc * z + complex(c)
    return acc


def envelope_defect(m: int, k: int, theta: float) -> float:
    """H for the normalized family ((1+z)/2)^m (1+z^k)/2 at angle theta.

    Equals exp(-(k^2 + m) sin^2(theta/2)) - cos^2(k theta/2)
    (cos^2(theta/2))^m; nonnegative exactly when m >= threshold_value.
    """
    s = math.sin(0.5 * theta) ** 2
    c2 = math.cos(0.5 * theta) ** 2
    ck2 = math.cos(0.5 * k * theta) ** 2
    return math.exp(-(k * k + m) * s) - ck2 * c2**m


def defect_general(coeffs: Sequence[float], theta: float) -> float:
    """H for an arbitrary coefficient vector (normalized to f(1) = 1)."""
    c = _normalized(coeffs)
    v = float(variance(c))
    w = 4.0 * math.sin(0.5 * theta) ** 2
    val = poly_eval_circle([float(x) for x in c], theta)
    return math.exp(-v * w) - abs(val) ** 2


def product_identity_residual(
    f: Sequence[float], g: Sequence[float], theta: float
) -> float:
    """Relative residual of H(fg) = exp(-V(f)|1-z|^2) H(g) + |g|^2 H(f).

    Inputs are normalized internally; the residual is scaled by the
    largest term magnitude (floor 1), so ~1e-16 means exact to noise.
    """
    fn = [float(c) for c in _normalized(f)]
    gn = [float(c) for c in _normalized(g)]
    h_fg = defect_general(exactpoly.poly_mul(fn, gn), theta)
    w = 4.0 * math.sin(0.5 * theta) ** 2
    vf = float(variance(fn))
    t1 = math.exp(-vf * w) * defect_general(gn, theta)
    t2 = abs(poly_eval_circle(gn, theta)) ** 2 * defect_general(fn, theta)
    scale = max(1.0, abs(h_fg), abs(t1), abs(t2))
    return abs(h_fg - (t1 + t2)) / scale


def denominator_gap(s: float) -> float:
    """-log1p(-s) - s, via a series tail for small s; inf for s >= 1."""
    if s >= 1.0:
        return float("inf")
    return kernels.gap(s, kernels.SCALAR_OPS)


def smooth_part(k: int, theta: float) -> float:
    """k^2 sin^2(theta/2) / denominator_gap; strictly decreasing in theta.

    threshold_value adds ln cos^2(k theta/2) / denominator_gap, which is
    <= 0, to this, so threshold_value <= smooth_part, with equality at
    the multiples of 2 pi/k.
    """
    s = math.sin(0.5 * theta) ** 2
    if s >= 1.0:
        return 0.0
    return k * k * s / denominator_gap(s)


def _quartic_margin_small(psi: float) -> float:
    # series for denominator_gap(sin^2 psi) - psi^4/2; the psi^4 and psi^6
    # orders cancel identically, so the difference is computed term-grouped
    # (leading survivor psi^8/60) instead of by subtraction
    p2 = psi * psi
    eps = p2 * p2 * (2.0 / 45.0 + p2 * (-1.0 / 315.0 + p2 * (2.0 / 14175.0)))
    delta = -p2 / 3.0 + eps  # sin^2 psi = psi^2 (1 + delta)
    one = 1.0 + delta
    cube_rest = delta * (3.0 + delta * (3.0 + delta))  # (1+delta)^3 - 1
    p4 = p2 * p2
    p6 = p4 * p2
    return (
        p4 * eps
        + 0.5 * p4 * delta * delta
        + p6 * cube_rest / 3.0
        + p6 * p2 * one**4 / 4.0
        + p6 * p4 * one**5 / 5.0
        + p6 * p6 * one**6 / 6.0
        + p6 * p6 * p2 * one**7 / 7.0
    )


def quartic_floor_check(psi: float) -> tuple[bool, float]:
    """Check denominator_gap(sin^2 psi) >= psi^4 / 2 and return the margin.

    The floor is the small-angle workhorse; it is asserted on
    (0, 1/(2 sqrt 2)] and in fact persists well past that. The margin is
    of order psi^8 near zero, far below the noise of direct subtraction,
    so small psi take a dedicated cancellation-free series.
    """
    if not 0.0 < psi <= 0.5 * math.pi:
        raise ValueError(f"psi must lie in (0, pi/2], got {psi}")
    if psi < 0.05:
        margin = _quartic_margin_small(psi)
    else:
        s = math.sin(psi) ** 2
        margin = denominator_gap(s) - 0.5 * psi**4
    return margin >= 0.0, margin


def theta_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """Right-closed grid lo + (hi - lo) * (i / n) for i = 1..n."""
    return _grid_angles(lo, hi - lo, np.arange(1, n + 1, dtype=np.float64), n)
