"""Sharp smoothing thresholds for (1+x)^m (1+x^k).

The coefficient sequence of (1+x)^m (1+x^k) is strongly unimodal exactly
when m is large enough; this module locates that threshold exactly and
provides the rational quantities (central ratios, neighbor ratios, the
binomial part of the log-concavity defect beta) that certify it. All
values are Fractions or ints, never floats. The reference forms of
beta, c+ and c- are tests/oracles.py's.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import Refusal
from .exactpoly import (
    _check_family,
    _neighbour_ratio,
    _require_k,
    _scaled_perms,
    family_report,
    is_strongly_unimodal,
    poly_mul,
)

__all__ = [
    "NotFoundError",
    "ThresholdResult",
    "InequalityProbe",
    "predicted_threshold",
    "central_ratio_odd",
    "central_ratio_even",
    "ratio_vs_coefficients",
    "a_of_u",
    "inequality_one_probe",
    "inequality_probes",
    "case_polynomial_probe",
    "u_range",
    "minimal_m",
    "scan_thresholds",
    "generic_min_N",
]


class NotFoundError(Refusal):
    """No admissible value exists below the search cap."""

    exit_code = 4
    label = "not found"


def predicted_threshold(k: int) -> int:
    """Smallest m for which the family is expected strongly unimodal."""
    return k * k - 3


def central_ratio_odd(m: int, k: int) -> Fraction:
    """Ratio of the two coefficients next to the central plateau, m + k odd.

    Closed form (m^2 + 2m + 3(k^2 - 1)) / ((m + 3)^2 - k^2). Equals 1
    exactly at m = k^2 - 3 and exceeds 1 below it.
    """
    _check_family(m, k)
    if (m + k) % 2 != 1:
        raise ValueError(f"m + k must be odd, got m={m}, k={k}")
    den = (m + 3) ** 2 - k * k
    if den <= 0:
        raise ValueError(f"degenerate denominator (m + 3)^2 - k^2 = {den} for m={m}, k={k}")
    return Fraction(m * m + 2 * m + 3 * (k * k - 1), den)


def central_ratio_even(m: int, k: int) -> Fraction:
    """Central coefficient ratio in closed form, m + k even.

    Closed form (m^2 + k^2 + 2m) / ((m + 2)^2 - k^2). Equals 1 exactly at
    m = k^2 - 2.
    """
    _check_family(m, k)
    if (m + k) % 2 != 0:
        raise ValueError(f"m + k must be even, got m={m}, k={k}")
    den = (m + 2) ** 2 - k * k
    if den <= 0:
        raise ValueError(f"degenerate denominator (m + 2)^2 - k^2 = {den} for m={m}, k={k}")
    return Fraction(m * m + k * k + 2 * m, den)


def ratio_vs_coefficients(m: int, k: int) -> tuple[Fraction, Fraction]:
    """Closed-form central ratio and the same ratio from raw coefficients.

    The coefficient ratio is c(h-1)/c(h). For even degree h = (m+k)//2,
    the true center. For odd degree the two exact middle coefficients are
    equal by symmetry, so the informative ratio is the one entering that
    plateau: h = (m+k-1)//2. Both entries are exact; they must agree
    identically. The raw ratio comes from the product form of the
    coefficients (exactpoly._neighbour_ratio), so no binomial of size m
    is built, over the factors its two products share
    (exactpoly._scaled_perms), so no product of k factors is built
    either; the closed form exists only for k <= m + 1, where h <= m.
    """
    d = m + k
    if d % 2 == 1:
        closed = central_ratio_odd(m, k)
        h = (d - 1) // 2
    else:
        closed = central_ratio_even(m, k)
        h = d // 2
    num, den = _neighbour_ratio(m, k, h, *_scaled_perms(m, k, h))
    return closed, Fraction(den, num)


def a_of_u(k: int, u: int) -> Fraction:
    """Coefficient ratio C(m, u-k) / C(m, u) at the critical m = k^2 - 3.

    Computed as perm(u, k) / perm(m - u + k, k), the p(u)/q(u) of
    exactpoly._neighbour_ratio, which avoids the huge binomials. Zero for
    u < k, where perm(u, k) = 0.
    """
    _require_k(k)
    m = k * k - 3
    if u < 0 or u > m:
        raise ValueError(f"u must lie in [0, {m}] for k={k}, got {u}")
    return Fraction(math.perm(u, k), math.perm(m - u + k, k))


def _c_terms(k: int, u: int) -> tuple[int, int, int, int]:
    # (P+, Q+, P-, Q-), unreduced, with the one-step factors at m = k^2 - 3
    # a(u+1)/a(u) = c+ = P+/Q+ and a(u-1)/a(u) = c- = P-/Q-; both
    # denominators are positive for k <= u <= k^2 - 4
    q_plus = (u - k + 1) * (k * k - 3 - u)
    q_minus = u * (k * k - u + k - 2)
    return (u + 1) * (k * k + k - 3 - u), q_plus, q_minus - k * (k * k - 2), q_minus


def _b_factor(k: int, u: int) -> Fraction:
    # binomial part of beta at m = k^2 - 3; positive for 1 <= u <= k^2 - 4
    return Fraction((k * k - 2 - u) * (u + 1), (k * k - 3 - u) * u)


class InequalityProbe(NamedTuple):
    """One audit row for the key neighbor-ratio inequality."""

    k: int
    u: int
    lhs: Fraction
    rhs: Fraction
    holds: bool
    case_bound_first: int
    case_bound_second: int
    case_bound_holds: bool


def u_range(k: int) -> range:
    """Indices k <= u <= (k^2 + k - 6) // 2 covered by the inequality audit."""
    _require_k(k)
    return range(k, (k * k + k - 6) // 2 + 1)


def case_polynomial_probe(k: int, u: int) -> tuple[int, int]:
    """Exact integer pair (4(B-1)R, (c_+ + c_- - 2)R) after clearing denominators.

    R = u (u-k+1) (k^2-3-u) (k^2+k-u-2) / (k^2-2) is the common positive
    factor; the first entry simplifies to 4(u-k+1)(k^2+k-u-2) and the
    second to k(k^3 - k^2 + 2u - 3k + 3). The comparison first >= second
    is a sufficient (not necessary) route to the inequality; the audit
    records it without treating a failure as a counterexample.
    """
    _require_k(k)
    first = 4 * (u - k + 1) * (k * k + k - u - 2)
    second = k * (k**3 - k * k + 2 * u - 3 * k + 3)
    return first, second


def inequality_one_probe(k: int, u: int) -> InequalityProbe:
    """Audit B(u) - 1 >= ((c_+ + c_- - 2) a + (c_+ c_- - 1) a^2) / (1+a)^2.

    Exact rational evaluation at m = k^2 - 3. The probe also carries the
    cleared-denominator case pair from case_polynomial_probe.
    """
    _require_k(k)
    if u not in u_range(k):
        raise ValueError(f"u must lie in {u_range(k)} for k={k}, got {u}")
    return _probe_row(k, u, a_of_u(k, u))


def inequality_probes(k: int) -> list[InequalityProbe]:
    """inequality_one_probe(k, u) for every u in u_range(k), in order.

    a(u) is built once, at the first u, and carried to the next row by
    a(u+1) = a(u) c+(u) instead of being rebuilt from its k-term
    product. Empty for k = 2, whose u_range is empty.
    """
    us = u_range(k)
    if not us:
        return []
    a = a_of_u(k, us.start)
    rows = []
    for u in us:
        rows.append(_probe_row(k, u, a))
        p, q, _, _ = _c_terms(k, u)
        a *= Fraction(p, q)
    return rows


def _probe_row(k: int, u: int, a: Fraction) -> InequalityProbe:
    # The one body of an audit row, for u in u_range(k) and a = a(u). With
    # c+ = P+/Q+, c- = P-/Q- and a = n/d, the rhs over the common
    # denominator is
    # ((P+Q- + P-Q+ - 2Q+Q-) d + (P+P- - Q+Q-) n) n / (Q+Q- (d + n)^2),
    # so it is normalised once.
    p_plus, q_plus, p_minus, q_minus = _c_terms(k, u)
    n, d = a.numerator, a.denominator
    qq = q_plus * q_minus
    lhs = _b_factor(k, u) - 1
    rhs = Fraction(
        ((p_plus * q_minus + p_minus * q_plus - 2 * qq) * d + (p_plus * p_minus - qq) * n) * n,
        qq * (d + n) ** 2,
    )
    first, second = case_polynomial_probe(k, u)
    return InequalityProbe(k, u, lhs, rhs, lhs >= rhs, first, second, first >= second)


class ThresholdResult(NamedTuple):
    """Measured and predicted smoothing thresholds for one k."""

    k: int
    min_m_strong: int
    min_m_unimodal: int
    predicted: int
    match: bool


def minimal_m(k: int, mode: str = "strong", cap: Optional[int] = None) -> int:
    """Smallest m >= 1 whose coefficient sequence passes the given predicate.

    mode is "strong" or "unimodal". The strong predicate is monotone in
    m: the sequence for m + 1 is the sequence for m times 1 + x, which
    keeps a positive sequence log-concave (the member lemma in
    exactpoly.family_report).

    Unimodal mode scans nothing: the lemma in exactpoly.family_report
    proves that the family is unimodal exactly when m >= k^2 - 3, so the
    answer is p = predicted_threshold(k). A positive log-concave sequence
    with no internal zeros is unimodal, so every m < p fails the strong
    predicate too, and strong mode proves its answer with one
    family_report call, at p. Should p fail it, a binary search on the
    monotonicity finds the answer above p.

    Raises NotFoundError when no m <= cap passes (cap defaults to k*k),
    with no scan when cap < p.
    """
    _require_k(k)
    if mode not in ("strong", "unimodal"):
        raise ValueError(f"mode must be 'strong' or 'unimodal', got {mode!r}")
    if cap is None:
        cap = k * k
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    p = predicted_threshold(k)
    if p <= cap and (mode == "unimodal" or family_report(p, k).strongly_unimodal):
        return p
    if p >= cap or not family_report(cap, k).strongly_unimodal:
        raise NotFoundError(f"no m <= {cap} passes mode={mode!r} for k={k}")
    lo, hi = p, cap
    # invariant: hi passes the strong predicate, lo does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if family_report(mid, k).strongly_unimodal:
            hi = mid
        else:
            lo = mid
    return hi


def scan_thresholds(k: int, cap: Optional[int] = None) -> ThresholdResult:
    """Measure both thresholds for one k and compare with k^2 - 3.

    One minimal_m call per mode: the unimodal threshold comes from the
    lemma in exactpoly.family_report with no scan, and the strong one from
    one family_report call at k^2 - 3. That both are k^2 - 3 is the
    paper's claim that, for this family, unimodality implies strong
    unimodality.
    """
    predicted = predicted_threshold(k)
    strong = minimal_m(k, "strong", cap)
    uni = minimal_m(k, "unimodal", cap)
    return ThresholdResult(k, strong, uni, predicted, strong == predicted and uni == predicted)


def generic_min_N(p: Sequence[int], cap: int = 64) -> int:
    """Smallest N >= 0 with (1+x)^N p(x) strongly unimodal.

    p is any nonnegative integer sequence with at least one nonzero entry.
    The count is found by direct multiplication; no monotonicity shortcut
    is assumed here.
    """
    seq = [int(c) for c in p]
    if not seq or all(c == 0 for c in seq):
        raise ValueError("p must have at least one nonzero coefficient")
    if any(c < 0 for c in seq):
        raise ValueError("p must have nonnegative coefficients")
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    current = seq
    for n in range(cap + 1):
        if is_strongly_unimodal(current)[0]:
            return n
        current = poly_mul(current, [1, 1])
    raise NotFoundError(f"no N <= {cap} smooths the given sequence")
