import functools
import math
import random
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

import unimodal_lab
from unimodal_lab import exactpoly
from unimodal_lab.exactpoly import (
    binomial,
    coefficient,
    expand_family,
    family_report,
    is_strongly_unimodal,
    is_unimodal,
    poly_mul,
    unimodal_report,
)
from unimodal_lab.thresholds import central_ratio_even, central_ratio_odd


def reference_strongly_unimodal(seq):
    """The plain integer loop that is_strongly_unimodal's quotient bracket must reproduce exactly."""
    a = list(seq)
    support = [i for i, c in enumerate(a) if c != 0]
    if not support:
        return True, None, None
    lo, hi = support[0], support[-1]
    for i in range(lo + 1, hi):
        if a[i] == 0:
            return False, i - 1, "internal-zero"
    for i in range(lo + 1, hi):
        if a[i] * a[i] < a[i - 1] * a[i + 1]:
            return False, i, "log-concavity"
    return True, None, None


def near_tie(t, j, e, d=0):
    """(P, A, Q) with A^2 / (P Q) = 1 + e / 2^60 exactly.

    Both ratios A/P and Q/A carry the factor 10^d, so d around +-310 pushes
    them past the float range or into subnormals.
    """
    n = 2**60
    up, down = 10 ** max(d, 0), 10 ** max(-d, 0)
    return [(n + e) * t * 2**j * down**2, (n + e) * t * up * down, t * 2 ** (60 - j) * up**2]


class TestBinomial:
    def test_row_five(self):
        assert [binomial(5, r) for r in range(6)] == [1, 5, 10, 10, 5, 1]

    def test_out_of_range_is_zero(self):
        assert binomial(10, -1) == 0
        assert binomial(10, 11) == 0

    def test_matches_math_comb_in_range(self):
        for n in range(0, 30):
            for r in range(0, n + 1):
                assert binomial(n, r) == math.comb(n, r)


_FAMILY_CHECKED = {
    "coefficient": lambda m, k: coefficient(m, k, 0),
    "expand_family": expand_family,
    "family_report": family_report,
    "central_ratio_odd": central_ratio_odd,
    "central_ratio_even": central_ratio_even,
}


@pytest.mark.parametrize("name", _FAMILY_CHECKED)
@pytest.mark.parametrize("m, k, message", [
    (0, 3, "m must be a positive integer"),
    (1.5, 3, "m must be a positive integer"),
    (5, 1, r"k must be an integer >= 2"),
    (5, 2.0, r"k must be an integer >= 2"),
])
def test_family_functions_reject_bad_params(name, m, k, message):
    with pytest.raises(ValueError, match=message):
        _FAMILY_CHECKED[name](m, k)


class TestExpandFamily:
    def test_known_case_six_three(self):
        seq = expand_family(6, 3)
        assert type(seq) is list
        assert seq == [1, 6, 15, 21, 21, 21, 21, 15, 6, 1]

    def test_known_case_five_three(self):
        assert expand_family(5, 3) == [1, 5, 10, 11, 10, 11, 10, 5, 1]

    def test_known_case_four_two(self):
        assert expand_family(4, 2) == [1, 4, 7, 8, 7, 4, 1]

    def test_m_one(self):
        assert expand_family(1, 2) == [1, 1, 1, 1]

    def test_coefficient_formula_agrees(self):
        for m in (1, 4, 9, 17):
            for k in (2, 3, 7):
                seq = expand_family(m, k)
                for u in range(m + k + 1):
                    assert seq[u] == coefficient(m, k, u)

    def test_agrees_with_poly_mul(self):
        for m in range(1, 41):
            for k in range(2, 11):
                binom = [binomial(m, r) for r in range(m + 1)]
                spike = [1] + [0] * (k - 1) + [1]
                assert expand_family(m, k) == poly_mul(binom, spike)

    def test_half_row_matches_coefficients(self):
        # the binomial row is built to its middle and mirrored: odd and even
        # m, and m < k
        for m in range(1, 65):
            for k in range(2, 13):
                assert expand_family(m, k) == [coefficient(m, k, u) for u in range(m + k + 1)]

    @pytest.mark.parametrize("m", [7741, 7740])
    def test_half_row_at_stress_size(self, m):
        # coefficient() at every index takes ~30 s at this size, so the row is
        # compared with the full-row recurrence, and sampled indices with
        # coefficient()
        k = 88
        row = [1] * (m + 1)
        for r in range(1, m + 1):
            row[r] = row[r - 1] * (m - r + 1) // r
        want = row + [0] * k
        for u, c in enumerate(row):
            want[u + k] += c
        got = expand_family(m, k)
        assert got == want
        h = (m + k) // 2
        for u in [*range(0, m + k + 1, 97), h - 1, h, h + 1, m + k]:
            assert got[u] == coefficient(m, k, u)

    @given(st.integers(1, 60), st.integers(2, 12))
    def test_palindromic(self, m, k):
        seq = expand_family(m, k)
        assert seq == seq[::-1]

    @given(st.integers(1, 60), st.integers(2, 12))
    def test_sum_is_power_of_two(self, m, k):
        assert sum(expand_family(m, k)) == 2 ** (m + 1)


class TestPolyMul:
    def test_square_of_one_plus_x(self):
        prod = poly_mul([1, 1], [1, 1])
        assert type(prod) is list
        assert prod == [1, 2, 1]

    def test_constants(self):
        assert poly_mul([2], [3]) == [6]

    def test_zero_polynomial(self):
        assert poly_mul([0, 0], [1, 1]) == [0, 0, 0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            poly_mul([], [1])

    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=6),
        st.lists(st.integers(0, 9), min_size=1, max_size=6),
    )
    def test_commutative(self, a, b):
        assert poly_mul(a, b) == poly_mul(b, a)


class TestIsUnimodal:
    def test_rise_then_fall(self):
        assert is_unimodal([1, 2, 3, 3, 2, 1]) == (True, None)

    def test_double_peak_witness(self):
        ok, wit = is_unimodal([1, 5, 10, 11, 10, 11, 10, 5, 1])
        assert not ok
        assert wit == (4, 5)

    def test_singleton(self):
        assert is_unimodal([3]) == (True, None)

    def test_monotone_rise(self):
        assert is_unimodal([1, 2, 2, 5]) == (True, None)

    def test_valley_witness(self):
        ok, wit = is_unimodal([2, 1, 1, 2])
        assert not ok
        assert wit == (2, 3)

    def test_all_zero(self):
        assert is_unimodal([0, 0, 0]) == (True, None)


class TestIsStronglyUnimodal:
    def test_boundary_equality_passes(self):
        assert is_strongly_unimodal([1, 2, 4]) == (True, None, None)

    def test_log_concavity_failure(self):
        ok, wit, reason = is_strongly_unimodal([1, 2, 5])
        assert (ok, wit, reason) == (False, 1, "log-concavity")

    def test_internal_zero(self):
        ok, wit, reason = is_strongly_unimodal([1, 0, 1])
        assert (ok, wit, reason) == (False, 0, "internal-zero")

    def test_internal_zero_run(self):
        # pointwise log-concave but the support has a hole of width two
        ok, wit, reason = is_strongly_unimodal([1, 1, 0, 0, 1, 1])
        assert (ok, wit, reason) == (False, 1, "internal-zero")

    def test_leading_trailing_zeros_ok(self):
        assert is_strongly_unimodal([0, 0, 3]) == (True, None, None)
        assert is_strongly_unimodal([3, 0, 0]) == (True, None, None)

    def test_singleton_and_all_zero(self):
        assert is_strongly_unimodal([5]) == (True, None, None)
        assert is_strongly_unimodal([0]) == (True, None, None)

    def test_witness_uses_original_indices(self):
        ok, wit, reason = is_strongly_unimodal([0, 0, 1, 2, 5, 1])
        assert not ok
        assert reason == "log-concavity"
        assert wit == 3  # 2^2 < 1*5 at the original position

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=12))
    def test_strong_implies_unimodal(self, seq):
        if is_strongly_unimodal(seq)[0]:
            assert is_unimodal(seq)[0]


class TestQuotientBracketMatchesReference:
    """is_strongly_unimodal gives the reference loop's (ok, witness, reason)."""

    @pytest.fixture(autouse=True, scope="class", params=[64, 0], ids=["shift64", "shift0"])
    def shift(self, request):
        # every case again with a shift of 0, whose brackets are the integer
        # parts of the ratios, so far more pairs tie and go to the exact
        # comparison; class scope, as hypothesis refuses function-scoped
        # fixtures
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exactpoly, "_SHIFT", request.param)
            yield

    @given(st.lists(st.one_of(st.just(0), st.integers(0, 10**2000)), min_size=1, max_size=12))
    def test_huge_entries(self, seq):
        assert is_strongly_unimodal(seq) == reference_strongly_unimodal(seq)

    @given(
        st.integers(1, 10**300),
        st.integers(1, 10**300),
        st.integers(1, 10**300),
        st.integers(3, 12),
        st.lists(st.integers(0, 10**50), max_size=3),
    )
    def test_geometric_ties(self, c, r, q, n, tail):
        seq = [c * r**i * q ** (n - i) for i in range(n)] + tail
        assert is_strongly_unimodal(seq) == reference_strongly_unimodal(seq)

    @given(st.integers(1, 10**1000), st.integers(1, 8), st.integers(0, 3))
    def test_plateaus(self, c, width, edge):
        seq = [edge, c // 2 + 1] + [c] * width + [c // 2 + 1, edge]
        assert is_strongly_unimodal(seq) == reference_strongly_unimodal(seq)

    @pytest.mark.parametrize("k", range(3, 14))
    def test_threshold_centre_plateau(self, k):
        for m in (k * k - 4, k * k - 3):
            seq = expand_family(m, k)
            assert is_strongly_unimodal(seq) == reference_strongly_unimodal(seq)

    @given(
        st.integers(1, 10**400),
        st.integers(0, 60),
        st.integers(-(2**16), 2**16),
        st.one_of(st.just(0), st.integers(-330, 330)),
        st.lists(st.integers(1, 10**40), max_size=2),
        st.lists(st.integers(1, 10**40), max_size=2),
    )
    def test_near_ties(self, t, j, e, d, head, tail):
        seq = head + near_tie(t, j, e, d) + tail
        assert is_strongly_unimodal(seq) == reference_strongly_unimodal(seq)

    @pytest.mark.parametrize("d", [0, -300, -309, -315, 309, 318])
    @pytest.mark.parametrize("e", [-1, 1, -(2**10), 2**10, -(2**12), 2**12])
    def test_near_tie_examples(self, e, d):
        # the verdict is the sign of e, whether the quotient bracket decides
        # it or the quotients tie (d < 0 makes both 0) and the integer
        # comparison does
        seq = near_tie(3**500, 30, e, d)
        assert is_strongly_unimodal(seq) == (e >= 0, None if e >= 0 else 1,
                                             None if e >= 0 else "log-concavity")

    @given(st.lists(st.one_of(st.integers(0, 3), st.integers(280, 420).map(lambda d: 10**d)),
                    min_size=1, max_size=10))
    def test_overflow_and_subnormal_ratios(self, seq):
        assert is_strongly_unimodal(seq) == reference_strongly_unimodal(seq)

    @pytest.mark.parametrize("seq", [
        [1, 10**400, 10**400],
        [10**400, 1, 1],
        [10**310, 1, 1],
        [1, 1, 10**310],
        [10**400, 10**400, 1],
        [0, 0, 10**400, 1, 0, 0],
        [2, 0, 0, 10**400, 1],
        [5, 7, 0],
        [0, 7],
        # a neighbour that is not positive
        [-1, 2, 3],
        [1, -2, 5],
        [2, 3, -1],
        [-1, 1, -2],
    ])
    def test_extreme_examples(self, seq):
        assert is_strongly_unimodal(seq) == reference_strongly_unimodal(seq)

    @given(st.lists(st.integers(-(10**50), 10**50), min_size=1, max_size=10))
    def test_signed_entries(self, seq):
        assert is_strongly_unimodal(seq) == reference_strongly_unimodal(seq)

    @pytest.mark.parametrize("seq, expect", [
        ([2**70, 2**70 + 1, 2**70 + 2], (True, None, None)),
        ([2**70 + 1, 2**70 + 1, 2**70 + 2], (False, 1, "log-concavity")),
        # ratios below 2^-64, whose quotients are both 0
        ([2**200, 2**100, 1], (True, None, None)),
        ([2**200, 2**100, 2], (False, 1, "log-concavity")),
    ])
    def test_tied_quotients_go_to_the_integers(self, seq, expect):
        a, b, c = seq
        assert (b << 64) // a == (c << 64) // b
        assert is_strongly_unimodal(seq) == reference_strongly_unimodal(seq) == expect

    def test_k88_stress_pair(self):
        member = expand_family(88 * 88 - 3, 88)
        non_member = expand_family(88 * 88 - 4, 88)
        assert is_strongly_unimodal(member) == reference_strongly_unimodal(member) == (True, None, None)
        expect = (False, 3914, "log-concavity")
        assert is_strongly_unimodal(non_member) == reference_strongly_unimodal(non_member) == expect


class TestUnimodalReport:
    def test_consistent_with_predicates(self):
        for seq in ([1, 2, 1], [1, 2, 5], [1, 0, 1], [2, 1, 2], [0, 0, 0]):
            rep = unimodal_report(seq)
            assert rep.unimodal == is_unimodal(seq)[0]
            assert rep.strongly_unimodal == is_strongly_unimodal(seq)[0]
            if rep.strongly_unimodal:
                assert rep.unimodal


def _difference_sign_changes(row):
    # sign changes of d(u) = c(u) - c(u-1), 0 <= u <= len(row), with
    # c(-1) = c(len(row)) = 0 and zeros skipped
    signs = [a > b for a, b in zip(row + [0], [0] + row) if a != b]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _lemma_verdict(m, k):
    # unimodal exactly when m >= k^2 - 3, else the first rise after a fall
    # is the central pair; k = m + 1 has the same pair, k > m + 1 rises out
    # of its zero run at (k-1, k)
    if m >= k * k - 3:
        return True, None
    n = m + k
    centre = n // 2 + n % 2
    return False, (k - 1, k) if k > m + 1 else (centre, centre + 1)


class TestUnimodalityLemma:
    # re-derives each step of the lemma in family_report's docstring in
    # exact arithmetic: unimodal exactly when m >= k^2 - 3

    def test_differences_change_sign_at_most_three_times(self):
        # step 1: (1+x)^m (1 - x + x^k - x^(k+1)) has at most 3; each row is
        # the last one times 1 + x, and the top row of each k is checked
        # against expand_family. Steps 2 and 3 on the same rows: a
        # non-member first rises after its fall at the central pair
        for k in range(2, 41):
            row = [1] + [0] * (k - 1) + [1]
            for m in range(1, k * k + 31):
                row = [a + b for a, b in zip(row + [0], [0] + row)]
                assert _difference_sign_changes(row) <= 3, (m, k)
                assert is_unimodal(row) == _lemma_verdict(m, k), (m, k)
            assert row == expand_family(m, k)

    def test_unimodal_exactly_from_k_squared_minus_three(self):
        for k in range(2, 41):
            for m in range(1, k * k + 31):
                assert family_report(m, k)[:2] == _lemma_verdict(m, k), (m, k)

    def test_ties_rise_into_the_plateau(self):
        # step 4: x(h) = 1 only at m = k^2 - 3 (odd N) and m = k^2 - 2
        # (even N), and there c(h-2) < c(h-1); m = k^2 - 3 at k = 2 is the
        # closed form k = m + 1
        for k in range(2, 301):
            den = (k * k - k + 2) * (k * k + k + 2)
            ties = [(k * k - 2, k**4 + 3 * k * k - 12, 16)]
            if k > 2:
                ties.append((k * k - 3, (k - 2) * (k + 2) * (k * k + 7), 32))
            for m, num, gap in ties:
                h = (m + k) // 2
                x_num, x_den = exactpoly._neighbour_ratio(m, k, h, *exactpoly._scaled_perms(m, k, h))
                assert x_num == x_den, (m, k)
                x_num, x_den = exactpoly._neighbour_ratio(m, k, h - 1, *exactpoly._scaled_perms(m, k, h - 1))
                assert Fraction(x_den, x_num) == Fraction(num, den), (m, k)
                assert den - num == gap

    def test_centre_numerator_minus_denominator(self):
        # step 3: c(h-1)/c(h) - 1 in closed form, so x(h) < 1 exactly when
        # m < k^2 - 3
        for k in range(3, 200):
            for m in {*range(k, k * k + 30, k), *range(k * k - 6, k * k + 3)}:
                if (m + k) % 2:
                    gap = Fraction(4 * k * k - 4 * m - 12, (m + 3) ** 2 - k * k)
                    assert central_ratio_odd(m, k) == 1 + gap, (m, k)
                else:
                    gap = Fraction(2 * k * k - 2 * m - 4, (m + 2) ** 2 - k * k)
                    assert central_ratio_even(m, k) == 1 + gap, (m, k)
                assert (gap > 0) == (m < k * k - 3)


def _family_grid():
    # every m around the threshold k^2 - 3 for k <= 40; the closed-form
    # cases k = m + 1 and k > m + 1 at m = 1, 2; seeded (m, k) with k up
    # to a little past sqrt(m), and with k anywhere up to m + 3
    pairs = [(m, k) for k in range(2, 41) for m in range(max(1, k * k - 6), k * k + 3)]
    pairs += [(m, k) for m in (1, 2) for k in range(2, m + 5)]
    rng = random.Random(28)
    for _ in range(200):
        m = rng.randint(1, 3000)
        pairs.append((m, rng.randint(2, math.isqrt(m) + 10)))
    for _ in range(100):
        m = rng.randint(1, 3000)
        pairs.append((m, rng.randint(2, m + 3)))
    return pairs


def _window_grid():
    # the family grid with k <= m, and scan-theorem1's two rows, m = k^2 - 4
    # and k^2 - 3, for k = 77..89
    pairs = [(m, k) for m, k in _family_grid() if k <= m]
    return pairs + [(m, k) for k in range(77, 90) for m in (k * k - 4, k * k - 3)]


class _WindowFacts(NamedTuple):
    nondecreasing: bool  # D is nondecreasing on [0, min(h, m - 1)]
    mismatches: list  # i in [k, h - 1] where the integer test differs from the real one
    first_failing: int  # first i in [k, h - 1] failing the real test, h if none


@functools.cache
def _window_facts(m, k):
    # from the exact increments D(i) = a(i+1) - a(i) with
    # a(u) = perm(u, k)/perm(m-u+k, k), and the real test of the window
    # lemma, D(i) j (m-j) <= m + 1 with j = min(i, m // 2). Each a(u+1) is
    # a(u) times the factors perm(u+1, k)/perm(u, k) and
    # perm(m-u+k, k)/perm(m-u-1+k, k), which spares Fraction a gcd of two
    # unrelated perm values at every index; the last a is checked against
    # its definition. Only the facts are cached, so the three tests below
    # share one pass
    h = (m + k) // 2
    top = min(h, m - 1)
    a = [Fraction(0)] * k + [Fraction(math.perm(k, k), math.perm(m, k))]
    for u in range(k, top + 1):
        a.append(a[u] * Fraction((u + 1) * (m - u + k), (u + 1 - k) * (m - u)))
    assert a[top + 1] == Fraction(math.perm(top + 1, k), math.perm(m - top - 1 + k, k))
    d = [a[i + 1] - a[i] for i in range(top + 1)]
    searched = range(k, h)
    passes, integer = [], []
    for i in searched:
        j = min(i, m // 2)
        passes.append(d[i] * j * (m - j) <= m + 1)
        p, q = exactpoly._scaled_perms(m, k, i + 1)
        integer.append(p * k * j * (m - j) <= (i + 1) * (m - i) * q)
    return _WindowFacts(
        all(x <= y for x, y in zip(d, d[1:])),
        [i for i, p, q in zip(searched, passes, integer) if p != q],
        next((i for i, p in zip(searched, passes) if not p), h),
    )


class TestWindowLemma:
    # re-derives the window lemma in family_report's docstring in exact
    # arithmetic: the test holds on a prefix, _window_start finds its end,
    # and every index before it is log-concave in the expanded row

    def test_increments_are_nondecreasing(self):
        for m, k in _window_grid():
            assert _window_facts(m, k).nondecreasing, (m, k)

    def test_integer_test_is_the_window_test(self):
        # on the range _window_start searches
        for m, k in _window_grid():
            assert _window_facts(m, k).mismatches == [], (m, k)

    def test_window_starts_at_the_first_failing_index(self):
        for m, k in _window_grid():
            assert exactpoly._window_start(m, k) == _window_facts(m, k).first_failing, (m, k)

    def test_every_index_before_the_window_is_log_concave(self):
        # the prefix c(0..i0) has the interior indices 1..i0-1
        for m, k in _window_grid():
            i0 = exactpoly._window_start(m, k)
            assert is_strongly_unimodal(expand_family(m, k)[: i0 + 1]) == (True, None, None), (m, k)
            assert k <= i0 <= (m + k) // 2, (m, k)

    def test_scaled_perms_divide_out_the_shared_factors(self):
        # the products of [u-k+1, u] and [m-u+2, m-u+k+1] over that of
        # [m-u+2, u], on both sides of 2u = m + 1 and at the centre; also
        # at k = m + 1, where ratio_vs_coefficients calls it
        for m, k in _window_grid()[::4] + [(m, m + 1) for m in range(1, 40)]:
            h = (m + k) // 2
            for u in {1, k - 1, k, k + 1, (m + 1) // 2, (m + 1) // 2 + 1, h - 1, h} & set(range(1, h + 1)):
                shared = math.perm(u, max(0, 2 * u - m - 1))
                p, q = math.perm(u, k), math.perm(m - u + k + 1, k)
                assert p % shared == q % shared == 0, (m, k, u)
                assert exactpoly._scaled_perms(m, k, u) == (p // shared, q // shared), (m, k, u)


class TestFamilyReport:
    def test_equals_the_row_and_both_predicates(self):
        for m, k in _family_grid():
            assert family_report(m, k) == unimodal_report(expand_family(m, k)), (m, k)

    @pytest.mark.parametrize("m", [22496, 22497, 22498])
    def test_a_below_the_float_range(self, m):
        # a(k) = 1/C(m, k) is below the least subnormal, 2^-1074, which no
        # float could carry; the scan holds a(u) as the integers perm(u, k)
        # and perm(m-u+k, k)
        k = 150
        assert math.comb(m, k) > 2**1074
        assert family_report(m, k) == unimodal_report(expand_family(m, k))

    def test_exact_ratio_matches_the_row(self):
        for m, k in _family_grid()[::3]:
            if k > m:
                continue
            row = expand_family(m, k)
            h = (m + k) // 2
            for u in {1, k - 1, k, k + 1, h - 1, h, m} - {0}:
                num, den = exactpoly._neighbour_ratio(m, k, u, math.perm(u, k), math.perm(m - u + k + 1, k))
                assert Fraction(num, den) == Fraction(row[u], row[u - 1]), (m, k, u)

    def test_coarse_bracket_changes_nothing(self, monkeypatch):
        # a shift of 0 brackets each ratio by its integer part, so two
        # neighbouring ratios with the same integer part, as near the centre
        # of every row, tie and the integer comparison decides them; no
        # report may change (TestQuotientBracketMatchesReference runs
        # is_strongly_unimodal at both shifts)
        grid = _family_grid()
        rows = [unimodal_report(expand_family(m, k)) for m, k in grid]
        monkeypatch.setattr(exactpoly, "_SHIFT", 0)
        for (m, k), row in zip(grid, rows):
            assert family_report(m, k) == row, (m, k)

    def test_plateau_is_decided_by_the_lemma(self):
        # at m = k^2 - 3 the two central coefficients are equal; the lemma
        # decides unimodality there, and the window ends at x(h), so it
        # never compares the tied pair x(h), x(h+1)
        m, k = 88 * 88 - 3, 88
        assert family_report(m, k) == (True, None, True, None, None)

    @pytest.mark.parametrize("m, k", [(7741, 88), (999996, 1000)])
    def test_perm_calls_only_locate_the_window(self, monkeypatch, m, k):
        # two perm calls a probe, at most ceil(log2 h) + 1 probes to gallop
        # down from h and ceil(log2 h) to bisect, and two to start the
        # window, which carries both products from index to index
        calls = []
        perm = math.perm
        monkeypatch.setattr(math, "perm", lambda *a: calls.append(a) or perm(*a))
        family_report(m, k)
        assert 0 < len(calls) <= 4 * math.ceil(math.log2((m + k) // 2)) + 4

    @pytest.mark.parametrize("m, k", [
        (10**5, 5 * 10**4), (10**6, 500001), (10**6, 6 * 10**5), (10**6, 10**6 - 1),
        (10**6, 10**6), (2**48, 2**47 + 1), (2**48 - 1, 2**48 - 1),
    ])
    def test_window_is_short_when_k_exceeds_half_m(self, monkeypatch, m, k):
        # r(u) - 1 >= 4 k (m+1)/(m+1-k)^2, about 8 or more here, so a(u)
        # shrinks by a factor r(u) a step away from the centre and the
        # window lemma leaves O(log m) indices open; the scan evaluates one
        # ratio an index
        calls = []
        ratio = exactpoly._neighbour_ratio
        monkeypatch.setattr(exactpoly, "_neighbour_ratio", lambda *a: calls.append(a) or ratio(*a))
        report = family_report(m, k)
        assert report.strong_witness is not None
        assert 0 < len(calls) <= math.log2(m), (m, k, len(calls))

    def test_neighbour_ratio_takes_two_perms(self, monkeypatch):
        # the central ratio as ratio_vs_coefficients takes it, k = m + 1
        # included
        calls = []
        perm = math.perm
        monkeypatch.setattr(math, "perm", lambda *a: calls.append(a) or perm(*a))
        for m, k, u in ((7741, 88, 3914), (999996, 1000, 500498), (30, 31, 30)):
            calls.clear()
            exactpoly._neighbour_ratio(m, k, u, *exactpoly._scaled_perms(m, k, u))
            assert len(calls) == 2

    @pytest.mark.parametrize("m", [2**49 - 5, 2**100, 10**400], ids=["N=2^49", "2^100", "10^400"])
    def test_refuses_beyond_the_proven_range(self, m):
        with pytest.raises(unimodal_lab.OutOfRange):
            family_report(m, 5)

    def test_closed_forms_hold_at_any_size(self):
        # k > m + 1 and k = m + 1 round nothing, so no range applies
        big = 10**400
        assert family_report(5, big) == (False, (big - 1, big), False, 5, "internal-zero")
        assert family_report(big, big + 1) == (False, (big + 1, big + 2), False, big, "log-concavity")

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            family_report(0, 3)
        with pytest.raises(ValueError):
            family_report(5, 1)
