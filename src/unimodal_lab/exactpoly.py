"""Exact coefficient sequences and unimodality predicates.

Coefficients are Python ints and every verdict is exact.
``is_strongly_unimodal`` decides in integers only. Floating point
appears in one filter, the log-concavity scan of ``family_report``,
which decides (1+x)^m (1+x^k) without building its row: it decides an
index only when a derived rounding bound proves the exact comparison
would give the same answer, and hands every other index to that exact
comparison. Sequences are plain lists of ints indexed by degree, so
``seq[u]`` is the coefficient of x^u.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from . import OutOfRange

__all__ = [
    "UnimodalReport",
    "binomial",
    "coefficient",
    "expand_family",
    "poly_mul",
    "is_unimodal",
    "is_strongly_unimodal",
    "unimodal_report",
    "family_report",
]


def _require_k(k: int) -> None:
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")


def _check_family(m: int, k: int) -> None:
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m!r}")
    _require_k(k)


def binomial(n: int, r: int) -> int:
    """C(n, r), with the convention that out-of-range r gives 0."""
    return math.comb(n, r) if r >= 0 else 0


def coefficient(m: int, k: int, u: int) -> int:
    """Coefficient of x^u in (1+x)^m (1+x^k): C(m, u) + C(m, u-k)."""
    _check_family(m, k)
    return binomial(m, u) + binomial(m, u - k)


def expand_family(m: int, k: int) -> list[int]:
    """Full coefficient sequence of (1+x)^m (1+x^k), degree m + k."""
    _check_family(m, k)
    # binomial row for (1+x)^m by the multiplicative recurrence up to the
    # middle, mirrored by C(m, r) = C(m, m - r); then add the copy shifted
    # by k
    row = [1] * (m + 1)
    c = 1
    for r in range(1, m // 2 + 1):
        c = c * (m - r + 1) // r
        row[r] = row[m - r] = c
    out = row + [0] * k
    for u, cv in enumerate(row):
        out[u + k] += cv
    return out


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Schoolbook product of two coefficient sequences."""
    pa = list(a)
    pb = list(b)
    if not pa or not pb:
        raise ValueError("cannot multiply an empty sequence")
    out = [0] * (len(pa) + len(pb) - 1)
    for i, ca in enumerate(pa):
        if ca == 0:
            continue
        for j, cb in enumerate(pb):
            out[i + j] += ca * cb
    return out


def is_unimodal(seq: Sequence[int]) -> tuple[bool, Optional[tuple[int, int]]]:
    """Decide unimodality: the sequence never rises again after a strict fall.

    Returns (True, None) or (False, (i, i+1)) where a[i] < a[i+1] is the
    first rise that follows an earlier strict fall.
    """
    a = list(seq)
    fallen = False
    for i in range(len(a) - 1):
        if a[i] > a[i + 1]:
            fallen = True
        elif a[i] < a[i + 1] and fallen:
            return False, (i, i + 1)
    return True, None


def is_strongly_unimodal(
    seq: Sequence[int],
) -> tuple[bool, Optional[int], Optional[str]]:
    """Decide strong unimodality (log-concavity with contiguous support).

    Two checks, both exact:

    * no zero strictly inside the support (between the first and last
      nonzero entries); a zero run starting at position z fails with
      witness index z - 1 and reason "internal-zero";
    * a[i]^2 >= a[i-1] a[i+1] for every interior index of the support;
      the first failing i is the witness, reason "log-concavity".

    Returns (ok, witness_index, reason). An all-zero sequence passes
    vacuously.

    The second check brackets each ratio in integers first. Where
    a[i-1] > 0, q(i) = (a[i] << 64) // a[i-1] puts a[i]/a[i-1] in
    [q(i), q(i) + 1) / 2^64. So when a[i-1] and a[i] are both positive,
    q(i) > q(i+1) gives a[i]/a[i-1] > a[i+1]/a[i], hence (times
    a[i-1] a[i] > 0) a[i]^2 > a[i-1] a[i+1], and q(i) < q(i+1) likewise
    gives a failure. Equal quotients, or a neighbour that is not
    positive, go to the integer comparison itself, so the verdict, the
    witness and the reason are those of that comparison alone. Each
    q(i+1) is reused as the next q(i): one floor division per index.
    """
    a = list(seq)
    support = [i for i, c in enumerate(a) if c != 0]
    if not support:
        return True, None, None
    lo, hi = support[0], support[-1]
    if hi - lo < 2:
        return True, None, None
    for i in range(lo + 1, hi):
        if a[i] == 0:
            return False, i - 1, "internal-zero"
    x = (a[lo + 1] << 64) // a[lo] if a[lo] > 0 else None
    for i in range(lo + 1, hi):
        y = (a[i + 1] << 64) // a[i] if a[i] > 0 else None
        if x is None or y is None or x == y:
            if a[i] * a[i] < a[i - 1] * a[i + 1]:
                return False, i, "log-concavity"
        elif x < y:
            return False, i, "log-concavity"
        x = y
    return True, None, None


class UnimodalReport(NamedTuple):
    """Joint verdict for one sequence."""

    unimodal: bool
    unimodal_witness: Optional[tuple[int, int]]
    strongly_unimodal: bool
    strong_witness: Optional[int]
    strong_reason: Optional[str]


def unimodal_report(seq: Sequence[int]) -> UnimodalReport:
    """Run both predicates on one sequence."""
    ok_u, wit_u = is_unimodal(seq)
    ok_s, wit_s, reason = is_strongly_unimodal(seq)
    return UnimodalReport(ok_u, wit_u, ok_s, wit_s, reason)


# family_report carries a(u) as a float times 2^(-900 j), widens its
# filter by multiples of 2^-52, and refuses a degree N >= _N_LIMIT with
# k <= m; its docstring derives all three
_SCALE = 2.0**-900
_EPS = 2.0**-52
_N_LIMIT = 2**49


def family_report(m: int, k: int) -> UnimodalReport:
    """unimodal_report(expand_family(m, k)), decided without building the row.

    The report is the same, verdict, witness and reason, but the row of
    m + k + 1 integers of up to m bits is never built: unimodality comes
    from the lemma below in closed form, and log-concavity from a scan of
    O(m + k) float steps that holds O(1) numbers. Write c(u) for the
    coefficients, N = m + k and h = N // 2.

    Closed forms. For k > m + 1, c(u) = 0 for m < u < k: the row falls
    into a zero run at m + 1 ("internal-zero" at m) and rises out of it
    at (k-1, k). For k = m + 1 the row is C(m, .) twice over: it falls to
    c(m) = c(m+1) = 1 and rises at (m+1, m+2), and c(m)^2 = 1 < m =
    c(m-1) c(m+1) is its first log-concavity failure (m = 1 gives
    1, 1, 1, 1, which passes).

    Symmetry. Otherwise k <= m, every c(u) is positive, and c(u) =
    c(N - u). With x(u) = c(u)/c(u-1), log-concavity at i is
    x(i) >= x(i+1), the same condition as at N - i, so the first failure
    lies at i <= h; at i = h it reads x(h) >= 1 for either parity of N
    (x(h+1) is 1 on the odd-N plateau and 1/x(h) for even N).

    Lemma (unimodality). For k <= m the row is unimodal exactly when
    m >= k^2 - 3. Otherwise its first rise after a fall is the central
    pair (h, h+1) for even N and (h+1, h+2) for odd N. Proof. Write
    d(u) = c(u) - c(u-1) for 0 <= u <= N + 1, with c(-1) = c(N+1) = 0:
    the coefficients of (1 - x) c = (1+x)^m (1 - x + x^k - x^(k+1)).

    1. Multiplying by 1 + x never increases the number of sign changes
       of a coefficient sequence (the variation-diminishing property;
       Karlin 1968, Total Positivity; Brenti 1989, Mem. AMS 413), and
       1 - x + x^k - x^(k+1) has 3. So d has at most 3.
    2. d(0) = 1, d(N+1) = -1 and d(N+1-u) = -d(u) by the palindrome. So
       the changes past the centre mirror the S changes on u <= h, and
       the last nonzero sign on u <= h meets its negation across the
       centre: 2S + 1 <= 3 in all, so S is 0 or 1. With S = 0, c never
       falls on u <= h, so by the mirror the row is unimodal. With
       S = 1, the last nonzero d(u) with u <= h is negative, and c never
       rises on u <= h after its first fall.
    3. The central closed forms (thresholds.central_ratio_even and
       central_ratio_odd, whose denominators are positive for k <= m)
       give c(h-1)/c(h) = 1/x(h), with numerator minus denominator
       2k^2 - 2m - 4 for even N and 4k^2 - 4m - 12 for odd N. As
       m = k^2 - 3 makes N odd, d(h) < 0 exactly when m < k^2 - 3. Then
       S = 1, and the first rise after a fall is past the centre: for
       even N, c(h+1) = c(h-1) > c(h); for odd N, c(h+1) = c(h) and
       c(h+2) = c(h-1) > c(h+1). When d(h) > 0, S = 0.
    4. d(h) = 0 only at m = k^2 - 3 (odd N) and m = k^2 - 2 (even N).
       There c(h-2)/c(h-1) is (k-2)(k+2)(k^2+7) / ((k^2-k+2)(k^2+k+2))
       and (k^4+3k^2-12) / ((k^2-k+2)(k^2+k+2)), whose denominators
       exceed their numerators by 32 and 16. So d(h-1) > 0 is the last
       nonzero sign on u <= h, and S = 0.

    With the closed forms above, unimodal holds exactly when m >= k^2 - 3
    for every m >= 1 and k >= 2.

    Ratios. For u <= h <= m, c(u) = C(m, u) (1 + a(u)) with
    a(u) = C(m, u-k)/C(m, u) = prod_{j<k} (u-j)/(m-u+k-j), which lies in
    [0, 1] and is 0 for u < k. So x(u) = ((m-u+1)/u) (1+a(u))/(1+a(u-1)),
    a(k) = prod_{i=1..k} i/(m-k+i), and a(u) = a(u-1) r(u) with
    r(u) = (m-u+k+1) u / ((u-k) (m-u+1)) > 1 for u > k. For u < k,
    x(u) = (m-u+1)/u falls strictly, so the row is log-concave there.

    Filter. Floats carry x(u) for k - 1 <= u <= h. The float a is a
    times 2^(900 j): a factor of a(k) that takes it below 2^-900 scales it
    up by 2^900 (j += 1), and a step of r that takes it above 1 while
    j > 0 scales it back (j -= 1). Both are exact, and while j > 0,
    a < 2^-900, so 1 + a rounds to 1 and the float used for it is 1. The
    roundings are correctly rounded int / int divisions, products,
    quotients and sums, all in the normal range (see Range), so
    each multiplies its result by a factor in [phi, 1/phi],
    phi = 1 - 2^-53. a(u) carries at most 2u of them (two per factor of
    a(k) and per step), 1 + a(u) at most 2u + 1 (with a t for a,
    (1 + a t)/(1 + a) lies between 1 and t), and x(u) at most E = 4h + 3.
    So the float x^ of x satisfies x phi^E <= x^ <= x phi^-E. Let
    s = 1 + (8h + 8) 2^-52. By Bernoulli, phi^-(2E+1) <=
    1/(1 - (2E+1) 2^-53) <= 1 + (2E+1) 2^-52 < s, for any h below 2^48:

    * x(i) >= x(i+1) when x^(i) >= fl(x^(i+1) s), since then
      x(i) >= x^(i) phi^E >= x^(i+1) s phi^(E+1) >= x(i+1) s phi^(2E+1);
    * x(i) < x(i+1) when fl(x^(i) s) < x^(i+1), since then
      x(i) <= x^(i) phi^-E < x^(i+1) phi^-(E+1) / s <= x(i+1).

    Range. The filter needs h < 2^48 and every rounding in the normal
    range. Both hold for N < 2^49, where h < 2^48 and, as k <= m,
    m < 2^49. A factor i/(m-k+i) of a(k) is at least 1/m > 2^-49, so the
    scaled a stays above 2^-949; a step r(u) is below (m+1) h < 2^97, so
    the scaled a stays below 2^97; and (m-u+1)/u lies between 1/h and m.
    So every rounded quantity is normal. For k <= m and N >= 2^49
    family_report raises unimodal_lab.OutOfRange before it converts
    anything to a float: the bound s is not proven there, and the scan
    would take about 2^48 steps anyway.

    Every index the two tests leave open is decided in integers by
    _log_concave_at, so the report is the exact one. The scan returns at
    the first failure; without one before h, i = h fails exactly when
    the row is not unimodal (x(h) < 1, step 3). Each index costs about one
    int / int division and a few float operations.
    """
    _check_family(m, k)
    n = m + k
    if k > m + 1:
        return UnimodalReport(False, (k - 1, k), False, m, "internal-zero")
    if k == m + 1:
        if m == 1:
            return UnimodalReport(True, None, True, None, None)
        return UnimodalReport(False, (m + 1, m + 2), False, m, "log-concavity")
    if n >= _N_LIMIT:
        raise OutOfRange(f"m + k is {n.bit_length()} bits long; the ratio scan's rounding bound "
                         "is proven only below 2^49")
    h = n // 2
    witness = None if m >= k * k - 3 else (h + n % 2, h + n % 2 + 1)
    strong = None if witness is None else h
    am, j = 1.0, 0
    for i in range(1, k + 1):
        am *= i / (m - k + i)
        if am < _SCALE:
            am /= _SCALE
            j += 1
    s = 1.0 + (8 * h + 8) * _EPS
    x0 = (m - k + 2) / (k - 1)
    b0 = 1.0
    for u in range(k, h + 1):
        if u > k:
            am *= (m - u + k + 1) * u / ((u - k) * (m - u + 1))
            if j and am > 1.0:
                am *= _SCALE
                j -= 1
        b = 1.0 if j else 1.0 + am
        x = (m - u + 1) / u * b / b0
        if x0 < x * s and (x0 * s < x or not _log_concave_at(m, k, u - 1)):
            strong = u - 1
            break
        x0, b0 = x, b
    return UnimodalReport(witness is None, witness, strong is None, strong,
                          None if strong is None else "log-concavity")


def _neighbour_ratio(m: int, k: int, u: int) -> tuple[int, int]:
    """x(u) = c(u)/c(u-1) of (1+x)^m (1+x^k) as an unreduced (num, den).

    For 1 <= u <= m. With q(w) = perm(m-w+k, k) and p(w) = perm(w, k),
    a(w) = p(w)/q(w) and c(w) = C(m, w) (1 + a(w)) = m! (p(w) + q(w)) /
    (w! (m-w+k)!), so x(u) = (m-u+k+1) (p(u) + q(u)) / (u (p(u-1) + q(u-1))).
    As u p(u-1) = (u-k) p(u) and (m-u+k+1) q(u) = (m-u+1) q(u-1), both
    parts come from p(u) and q(u-1) alone: two perm calls, not four, and
    no division.
    """
    p, q = math.perm(u, k), math.perm(m - u + k + 1, k)
    return (m - u + k + 1) * p + (m - u + 1) * q, (u - k) * p + u * q


def _log_concave_at(m: int, k: int, i: int) -> bool:
    # x(i) >= x(i+1) in integers, for 1 <= i < m
    n0, d0 = _neighbour_ratio(m, k, i)
    n1, d1 = _neighbour_ratio(m, k, i + 1)
    return n0 * d1 >= n1 * d0
