"""Exact coefficient sequences and unimodality predicates.

Coefficients are Python ints and every verdict is exact. The one place
floating point appears is the filter in ``is_strongly_unimodal``: it
decides an index only when a derived rounding bound proves the integer
comparison would give the same answer, and hands every other index to
that integer comparison. Sequences are indexed by degree, so ``seq[u]``
is the coefficient of x^u.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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
]


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (m, k) of the product (1+x)^m (1+x^k)."""

    m: int
    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"k must be an integer >= 2, got {self.k!r}")

    @property
    def degree(self) -> int:
        return self.m + self.k


@dataclass(frozen=True)
class CoeffSeq:
    """Immutable nonnegative integer coefficient sequence.

    The tuple is kept verbatim (no trimming), so witness indices reported
    by the predicates always refer to the caller's positions.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("coefficient sequence must be nonempty")
        for i, c in enumerate(self.coeffs):
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(f"coefficient at index {i} is not a nonnegative int: {c!r}")

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


@dataclass(frozen=True)
class UnimodalReport:
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
