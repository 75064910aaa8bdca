"""Exact coefficient sequences and unimodality predicates.

Coefficients are Python ints, every verdict is exact, and no function
here does a floating-point operation. ``is_strongly_unimodal`` and
``family_report``, which decides (1+x)^m (1+x^k) without building its
row, bracket each ratio by an integer floor quotient and compare the
integers themselves only where two brackets tie. Sequences are plain
lists of ints indexed by degree, so ``seq[u]`` is the coefficient of x^u.
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


# both bracket predicates put a ratio num/den with den > 0 in
# [y, y + 1) / 2^_SHIFT, where y = (num << _SHIFT) // den
_SHIFT = 64


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
    a[i-1] > 0, q(i) = (a[i] << _SHIFT) // a[i-1], with _SHIFT = 64,
    puts a[i]/a[i-1] in [q(i), q(i) + 1) / 2^_SHIFT. So when a[i-1] and
    a[i] are both positive, q(i) > q(i+1) gives a[i]/a[i-1] > a[i+1]/a[i], hence (times
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
    x = (a[lo + 1] << _SHIFT) // a[lo] if a[lo] > 0 else None
    for i in range(lo + 1, hi):
        y = (a[i + 1] << _SHIFT) // a[i] if a[i] > 0 else None
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


# family_report refuses a degree N >= _N_LIMIT with k <= m, a bound on
# its work that its docstring derives
_N_LIMIT = 2**49


def family_report(m: int, k: int) -> UnimodalReport:
    """unimodal_report(expand_family(m, k)), decided without building the row.

    The report is the same, verdict, witness and reason, but the row of
    m + k + 1 integers of up to m bits is never built: unimodality comes
    from the lemma below in closed form, and log-concavity from a window
    lemma and an exact scan of the indices it leaves open, which holds
    O(1) integers of O(k log m) bits. Write c(u) for the
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

    Ratios. For u <= m, c(u) = C(m, u) (1 + a(u)) with
    a(u) = C(m, u-k)/C(m, u) = perm(u, k)/perm(m-u+k, k), which is 0 for
    u < k. So x(u) = ((m-u+1)/u) (1+a(u))/(1+a(u-1)), which falls
    strictly for u < k: the row is log-concave at 1 <= i <= k - 2. For
    k < u <= m, a(u) = a(u-1) r(u) with r(u) = (m-u+k+1) u / ((u-k) (m-u+1))
    and r(u) - 1 = k (m+1) / ((u-k) (m-u+1)) > 0, so a is nondecreasing.

    Window lemma. For 1 <= i < m let D(i) = a(i+1) - a(i) and
    B(i) = 1 + (m+1)/(i (m-i)).

    1. As (m-i+1)(i+1) = i (m-i) + m + 1, x(i)/x(i+1) =
       B(i) (1+a(i))/(1+a(i+1)) (1+a(i))/(1+a(i-1)) >= B(i)/(1 + D(i)),
       because a is nonnegative and nondecreasing. So i is log-concave
       whenever D(i) i (m-i) <= m + 1.
    2. D is nondecreasing. D(i) = 0 for i < k - 1, D(k-1) = a(k), and
       for k < m, D(k) = a(k) (r(k+1) - 1) >= D(k-1) since r(k+1) - 1 =
       k (m+1)/(m-k) >= 1. For k <= i and i + 2 <= m,
       D(i+1) >= D(i) reads r(i+2) - 1 >= 1 - 1/r(i+1); with u = i + 1
       that is k (m+1)/((u+1-k) (m-u)) >= k (m+1)/((m-u+k+1) u), true as
       (m-u+k+1) u - (u+1-k) (m-u) = (k-1) (m-u) + (k+1) u >= 0.
    3. Let j = min(i, m // 2). Then j (m-j) >= i (m-i) and j (m-j) does
       not decrease with i, so by step 2 the test D(i) j (m-j) <= m + 1
       proves i log-concave and holds on a prefix of [k, h - 1], where
       h <= m. As D(i) = a(i+1) (1 - 1/r(i+1)) = a(i+1) k (m+1) /
       ((m-i+k) (i+1)), with u = i + 1 it reads, in integers,
       p k j (m-j) <= u (m-u+1) q, for (p, q) = (perm(u, k),
       perm(m-u+k+1, k)) or any pair proportional to it.
    4. Every i < k is log-concave: x falls for u < k, and
       c(k-1)^2 - c(k-2) c(k) = C(m, k-1) (C(m, k-1) (m+1) - k (k-1)) /
       (k (m-k+2)) > 0, as C(m, k-1) >= m >= k.

    Shared factor. For k <= u <= h, perm(u, k) and perm(m-u+k+1, k) are
    the products of [u-k+1, u] and [m-u+2, m-u+k+1], which share the
    factors [m-u+2, u] when 2u > m + 1. Divided by their product, they
    are perm(min(u, m+1-u), e) and perm(m+k+1-u, e) with
    e = min(k, m+k+1-2u) (_scaled_perms): about 2 (h-u) log2(m+k) bits
    near the centre, however large k is, and k log2(m+k) bits at most.

    i0 = _window_start(m, k) is the first i in [k, h - 1] that fails the
    test of step 3, or h if none does: every i < i0 is log-concave.

    Window. For i0 <= u <= h the scan carries the pair of _scaled_perms
    at i0, advanced by one multiply and one floor division each a step.
    Every division is exact: the factors [m-i0+2, i0] shared at i0 lie in
    [u-k+1, u] and in [m-u+2, m-u+k+1] for every u in the window, so the
    pair stays (perm(u, k), perm(m-u+k+1, k)) divided by one fixed
    integer, and x(u) = num/den as in _neighbour_ratio. It decides
    x(i) >= x(i+1) by the floor quotients (num << _SHIFT) // den, as
    is_strongly_unimodal does, and compares the integers only where two
    quotients are equal. The scan returns at the first failure; without
    one before h, i = h fails exactly when the row is not unimodal
    (x(h) < 1, step 3 of the unimodality lemma).

    Work. The window can take up to h steps, so for k <= m and N >= 2^49
    family_report raises unimodal_lab.OutOfRange, a bound on its work:
    2^48 steps would take years.
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
        raise OutOfRange(f"m + k is {n.bit_length()} bits long; the exact log-concavity window "
                         "can take (m + k) / 2 steps, so it runs only below 2^49")
    h = n // 2
    witness = None if m >= k * k - 3 else (h + n % 2, h + n % 2 + 1)
    strong = None if witness is None else h
    i0 = _window_start(m, k)
    p, q = _scaled_perms(m, k, i0)
    prev = None
    for u in range(i0, h + 1):
        num, den = _neighbour_ratio(m, k, u, p, q)
        y = (num << _SHIFT) // den
        if prev and (prev[0] < y or prev[0] == y and prev[1] * den < num * prev[2]):
            strong = u - 1
            break
        prev = y, num, den
        p, q = p * (u + 1) // (u + 1 - k), q * (m - u + 1) // (m - u + k + 1)
    return UnimodalReport(witness is None, witness, strong is None, strong,
                          None if strong is None else "log-concavity")


def _scaled_perms(m: int, k: int, u: int) -> tuple[int, int]:
    """perm(u, k) and perm(m-u+k+1, k) over their shared factors.

    For 2 <= k <= m + 1 and 1 <= u <= (m + k) // 2, as family_report's
    docstring derives for k <= m (at k = m + 1 both pairs are
    (0, positive)): two perm calls of min(k, m+k+1-2u) factors each.
    """
    e = min(k, m + k + 1 - 2 * u)
    return math.perm(min(u, m + 1 - u), e), math.perm(m + k + 1 - u, e)


def _window_start(m: int, k: int) -> int:
    """First index of family_report's exact window, for 2 <= k <= m.

    The first i in [k, h - 1] that fails the test of step 3 of
    family_report's window lemma, or h = (m + k) // 2 if none does. The
    test holds on a prefix, so the search gallops down from h, doubling
    its step while the probes fail, and bisects once one passes; each
    probe takes the two perm calls of _scaled_perms at i + 1, whose size
    shrinks towards h.
    """
    lo, hi, step = k, (m + k) // 2, 1
    while lo < hi:
        # the first failure lies in [lo, hi]; step is 0 once bisecting
        i = max(lo, hi - step) if step else (lo + hi) // 2
        j = min(i, m // 2)
        p, q = _scaled_perms(m, k, i + 1)
        if p * k * j * (m - j) <= (i + 1) * (m - i) * q:
            lo, step = i + 1, 0
        else:
            hi, step = i, 2 * step
    return lo


def _neighbour_ratio(m: int, k: int, u: int, p: int, q: int) -> tuple[int, int]:
    """x(u) = c(u)/c(u-1) of (1+x)^m (1+x^k) as an unreduced (num, den).

    For 1 <= u <= m. With q(w) = perm(m-w+k, k) and p(w) = perm(w, k),
    a(w) = p(w)/q(w) and c(w) = C(m, w) (1 + a(w)) = m! (p(w) + q(w)) /
    (w! (m-w+k)!), so x(u) = (m-u+k+1) (p(u) + q(u)) / (u (p(u-1) + q(u-1))).
    As u p(u-1) = (u-k) p(u) and (m-u+k+1) q(u) = (m-u+1) q(u-1), both
    parts come from p = p(u) and q = q(u-1) alone, or from any pair
    proportional to them, such as _scaled_perms(m, k, u), with no
    division.
    """
    return (m - u + k + 1) * p + (m - u + 1) * q, (u - k) * p + u * q

