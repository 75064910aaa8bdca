"""Exact coefficient sequences and unimodality predicates.

Coefficients are Python ints and every verdict is exact. Floating point
appears in two filters, each deciding an index only when a derived
rounding bound proves the exact comparison would give the same answer,
and handing every other index to that exact comparison: the one in
``is_strongly_unimodal``, and the neighbour-ratio scan of
``family_report``, which decides (1+x)^m (1+x^k) without building its
row. Sequences are indexed by degree, so ``seq[u]`` is the coefficient
of x^u.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, NamedTuple, Optional, Sequence

__all__ = [
    "FamilyParams",
    "CoeffSeq",
    "UnimodalReport",
    "binomial",
    "coefficient",
    "expand_family",
    "poly_mul",
    "is_unimodal",
    "is_strongly_unimodal",
    "unimodal_report",
    "family_report",
    "OutOfRange",
]


class _FamilyFields(NamedTuple):
    m: int
    k: int


class FamilyParams(_FamilyFields):
    """Parameters (m, k) of the product (1+x)^m (1+x^k)."""

    __slots__ = ()

    def __new__(cls, m: int, k: int) -> "FamilyParams":
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"m must be a positive integer, got {m!r}")
        if not isinstance(k, int) or k < 2:
            raise ValueError(f"k must be an integer >= 2, got {k!r}")
        return super().__new__(cls, m, k)

    @property
    def degree(self) -> int:
        return self.m + self.k


class CoeffSeq:
    """Nonnegative integer coefficient sequence, held as a tuple.

    The tuple is kept verbatim (no trimming), so witness indices reported
    by the predicates always refer to the caller's positions.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if not coeffs:
            raise ValueError("coefficient sequence must be nonempty")
        for i, c in enumerate(coeffs):
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(f"coefficient at index {i} is not a nonnegative int: {c!r}")
        self.coeffs = coeffs

    @classmethod
    def from_iterable(cls, values: Iterable[int]) -> "CoeffSeq":
        return cls(tuple(values))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i]

    def __iter__(self):
        return iter(self.coeffs)


def binomial(n: int, r: int) -> int:
    """C(n, r), with the convention that out-of-range r gives 0."""
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


def coefficient(m: int, k: int, u: int) -> int:
    """Coefficient of x^u in (1+x)^m (1+x^k): C(m, u) + C(m, u-k)."""
    FamilyParams(m, k)
    return binomial(m, u) + binomial(m, u - k)


def _expand_list(m: int, k: int) -> list[int]:
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


def expand_family(m: int, k: int) -> CoeffSeq:
    """Full coefficient sequence of (1+x)^m (1+x^k), degree m + k."""
    FamilyParams(m, k)
    return CoeffSeq(tuple(_expand_list(m, k)))


def poly_mul(a: Sequence[int], b: Sequence[int]) -> CoeffSeq:
    """Schoolbook product of two nonnegative integer coefficient sequences."""
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
    return CoeffSeq.from_iterable(out)


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


# Bounds of the float filter in is_strongly_unimodal; the docstring there
# derives them.
_NORMAL_MIN = sys.float_info.min  # 2^-1022
_NORMAL_MAX = sys.float_info.max
_FILTER_S = 1.0 + 2.0**-49


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

    The second check runs behind a float filter that is proven never to
    change a verdict. With x = a[i]/a[i-1] and y = a[i+1]/a[i], the test
    at i is x >= y whenever both ratios are positive (then a[i-1] a[i] > 0,
    and multiplying by it gives a[i]^2 >= a[i-1] a[i+1]). Python's int / int
    is correctly rounded, so a result x^ in the normal range
    [2^-1022, max float] satisfies |x - x^| <= u x^ with u = 2^-53, and
    likewise y^; an x that would round past max float raises
    OverflowError instead. A float product p = x^ s is normal when finite
    (p >= x^), so fl(p) >= p (1 - u). With s = 1 + 2^-49:

    * "holds" when x^ >= fl(y^ s): x >= x^ (1 - u) >= y^ s (1 - u)^2
      >= y s (1 - u)^2 / (1 + u) >= y;
    * "fails" when fl(x^ s) < y^: x <= x^ (1 + u) < y^ (1 + u) / (s (1 - u))
      <= y (1 + u) / (s (1 - u)^2) < y;

    both because s (1 - u)^2 = 1 + 2^-49 - 2^-52 + O(2^-101) > 1 + u. A
    product that overflows to inf decides nothing. Every other index (a
    ratio that overflows, is subnormal, zero or negative, or a pair the
    two tests leave open, such as an exact tie) is decided by the integer
    comparison, so the verdict, the witness and the reason are those of
    the integer loop alone. Each y is reused as the next x, so an index
    costs one big-integer division.
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
    x = _ratio(a, lo + 1)
    for i in range(lo + 1, hi):
        y = _ratio(a, i + 1)
        if _NORMAL_MIN <= x <= _NORMAL_MAX and _NORMAL_MIN <= y <= _NORMAL_MAX:
            if x >= y * _FILTER_S:
                x = y
                continue
            if x * _FILTER_S < y:
                return False, i, "log-concavity"
        if a[i] * a[i] < a[i - 1] * a[i + 1]:
            return False, i, "log-concavity"
        x = y
    return True, None, None


def _ratio(a: list[int], i: int) -> float:
    """a[i] / a[i-1], correctly rounded; inf (never normal) when it overflows.

    a[i-1] is nonzero: callers stay inside a support with no internal zero.
    """
    try:
        return a[i] / a[i - 1]
    except OverflowError:
        return math.inf


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


class OutOfRange(Exception):
    """family_report's rounding bound is not proven for this (m, k)."""


def family_report(m: int, k: int) -> UnimodalReport:
    """unimodal_report(expand_family(m, k)), decided without building the row.

    The report is the same, verdict, witness and reason, but the row of
    m + k + 1 integers of up to m bits is never built: the scan takes
    O(m + k) float steps and holds O(1) numbers. Write c(u) for the
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
    (x(h+1) is 1 on the odd-N plateau and 1/x(h) for even N). The signs
    of x(u) - 1 right of the middle are those left of it, negated and
    mirrored by u -> N + 1 - u. So the row is unimodal exactly when no
    x(u) < 1 for u <= h, and otherwise its first rise after a fall is
    the first u after the first fall with x(u) > 1, or, with none in the
    left half, the mirror N + 1 - v of the last v <= h with x(v) < 1.

    Ratios. For u <= h <= m, c(u) = C(m, u) (1 + a(u)) with
    a(u) = C(m, u-k)/C(m, u) = prod_{j<k} (u-j)/(m-u+k-j), which lies in
    [0, 1] and is 0 for u < k. So x(u) = ((m-u+1)/u) (1+a(u))/(1+a(u-1)),
    a(k) = prod_{i=1..k} i/(m-k+i), and a(u) = a(u-1) r(u) with
    r(u) = (m-u+k+1) u / ((u-k) (m-u+1)) > 1 for u > k. For u < k,
    x(u) = (m-u+1)/u decides both tests in closed form: it falls, and
    x(u) < 1 exactly when 2u > m + 1.

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
      x(i) <= x^(i) phi^-E < x^(i+1) phi^-(E+1) / s <= x(i+1);
    * x(u) > 1 when x^(u) >= s, and x(u) < 1 when fl(x^(u) s) < 1: the
      same two tests with the exact 1 in place of one ratio.

    Range. The filter needs h < 2^48 and every rounding in the normal
    range. Both hold for N < 2^49, where h < 2^48 and, as k <= m,
    m < 2^49. A factor i/(m-k+i) of a(k) is at least 1/m > 2^-49, so the
    scaled a stays above 2^-949; a step r(u) is below (m+1) h < 2^97, so
    the scaled a stays below 2^97; and (m-u+1)/u lies between 1/h and m.
    So every rounded quantity is normal. For k <= m and N >= 2^49
    family_report raises OutOfRange before it converts anything to a
    float: the bound s is not proven there, and the scan would take
    about 2^48 steps anyway.

    Every index the tests leave open, such as the exact plateau of
    m = k^2 - 3, is decided in integers by _neighbour_ratio, so the report
    is the exact one. Each index costs about one int / int division and
    a few float operations.
    """
    FamilyParams(m, k)
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
    fall = (m + 1) // 2 + 1  # the first u with 2u > m + 1
    first_fall, last_fall = (fall, k - 1) if fall < k else (None, None)
    rise = strong = None
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
        if strong is None and x0 < x * s and (x0 * s < x or not _log_concave_at(m, k, u - 1)):
            strong = u - 1
        if x >= s:
            sign = 1
        elif x * s < 1.0:
            sign = -1
        else:
            num, den = _neighbour_ratio(m, k, u)
            sign = (num > den) - (num < den)
        if sign < 0:
            last_fall = u
            if first_fall is None:
                first_fall = u
        elif sign > 0 and first_fall is not None and rise is None:
            rise = u
        if strong is not None and rise is not None:
            break
        x0, b0 = x, b
    if strong is None and last_fall == h:
        strong = h
    if first_fall is None:
        witness = None
    elif rise is not None:
        witness = (rise - 1, rise)
    else:
        witness = (n - last_fall, n - last_fall + 1)
    return UnimodalReport(witness is None, witness, strong is None, strong,
                          None if strong is None else "log-concavity")


def _neighbour_ratio(m: int, k: int, u: int) -> tuple[int, int]:
    """x(u) = c(u)/c(u-1) of (1+x)^m (1+x^k) as an unreduced (num, den).

    For 1 <= u <= m. With q(w) = perm(m-w+k, k) and p(w) = perm(w, k),
    a(w) = p(w)/q(w) and c(w) = C(m, w) (1 + a(w)) = m! (p(w) + q(w)) /
    (w! (m-w+k)!), so x(u) = (m-u+k+1) (p(u) + q(u)) / (u (p(u-1) + q(u-1))).
    """

    def t(w: int) -> int:
        return math.perm(w, k) + math.perm(m - w + k, k)

    return (m - u + k + 1) * t(u), u * t(u - 1)


def _log_concave_at(m: int, k: int, i: int) -> bool:
    # x(i) >= x(i+1) in integers, for 1 <= i < m
    n0, d0 = _neighbour_ratio(m, k, i)
    n1, d1 = _neighbour_ratio(m, k, i + 1)
    return n0 * d1 >= n1 * d0
