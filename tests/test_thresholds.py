from fractions import Fraction

import pytest

from unimodal_lab import exactpoly, thresholds
from unimodal_lab.exactpoly import (
    binomial,
    expand_family,
    is_strongly_unimodal,
    is_unimodal,
)
from unimodal_lab.thresholds import (
    BetaProbe,
    NotFoundError,
    a_of_u,
    beta_exact,
    c_minus,
    c_plus,
    case_polynomial_probe,
    central_ratio_even,
    central_ratio_odd,
    generic_min_N,
    inequality_one_probe,
    inequality_probes,
    minimal_m,
    predicted_threshold,
    ratio_vs_coefficients,
    ThresholdResult,
    scan_thresholds,
    u_range,
)


def _spy(monkeypatch):
    # record each family_report call that thresholds makes, and every row
    # expansion or sequence predicate call in either module
    calls = []

    def counting(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapped

    for fn in (expand_family, is_strongly_unimodal, is_unimodal):
        for mod in (exactpoly, thresholds):
            if hasattr(mod, fn.__name__):
                monkeypatch.setattr(mod, fn.__name__, counting(fn))
    monkeypatch.setattr(thresholds, "family_report", counting(exactpoly.family_report))
    return calls


def _passes(m, k, mode):
    report = exactpoly.family_report(m, k)
    return report.strongly_unimodal if mode == "strong" else report.unimodal


def _two_mode_minimal_m(k, mode, cap):
    # minimal_m before any lemma: p passes and p - 1 fails, both measured,
    # else a binary search on the monotonicity
    if cap is None:
        cap = k * k
    p = predicted_threshold(k)
    if p <= cap and _passes(p, k, mode) and (p == 1 or not _passes(p - 1, k, mode)):
        return p
    if not _passes(cap, k, mode):
        raise NotFoundError(k)
    lo, hi = 0, cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _passes(mid, k, mode):
            hi = mid
        else:
            lo = mid
    return hi


def _two_mode_scan(k, cap=None):
    strong = _two_mode_minimal_m(k, "strong", cap)
    uni = _two_mode_minimal_m(k, "unimodal", cap)
    p = predicted_threshold(k)
    return ThresholdResult(k, strong, uni, p, strong == p and uni == p)


class TestCentralRatios:
    def test_odd_example(self):
        assert central_ratio_odd(8, 3) == Fraction(13, 14)

    def test_even_example(self):
        assert central_ratio_even(4, 2) == Fraction(7, 8)

    def test_odd_parity_rejected(self):
        with pytest.raises(ValueError):
            central_ratio_odd(7, 3)

    def test_even_parity_rejected(self):
        with pytest.raises(ValueError):
            central_ratio_even(5, 2)

    def test_even_degenerate_denominator(self):
        with pytest.raises(ValueError):
            central_ratio_even(2, 4)

    def test_odd_equals_one_exactly_at_threshold(self):
        # the ratio exceeds 1 below the threshold (central dip) and drops
        # under 1 above it
        for k in range(2, 30):
            m = k * k - 3
            assert (m + k) % 2 == 1
            assert central_ratio_odd(m, k) == 1
            if m - 2 >= 1:
                assert central_ratio_odd(m - 2, k) > 1
            assert central_ratio_odd(m + 2, k) < 1

    def test_even_equals_one_at_its_threshold(self):
        for k in range(2, 30):
            m = k * k - 2
            if (m + k) % 2 == 0 and (m + 2) ** 2 > k * k:
                assert central_ratio_even(m, k) == 1

    def test_ratio_vs_coefficients_exact(self):
        # m >= k keeps the closed-form denominators positive and the
        # reference coefficient nonzero
        for k in (2, 3, 5, 8):
            for m in range(k, 5 * k * k, 3):
                closed, raw = ratio_vs_coefficients(m, k)
                assert closed == raw


class TestCentralDip:
    # at m = k^2 - 4 the centre dips, c(h-1) = c(h+1) > c(h): step 3 of the
    # unimodality lemma in exactpoly.family_report

    def test_closed_form(self):
        for k in range(3, 151):
            assert central_ratio_even(k * k - 4, k) == 1 + Fraction(4, (k * k - 2) ** 2 - k * k)

    def test_dip_in_the_coefficients(self):
        # every k to 60, then sampled: expanding all of 3..150 takes ~3 s
        for k in [*range(3, 61), 88, 120, 150]:
            m = k * k - 4
            seq = expand_family(m, k)
            h = (m + k) // 2
            assert Fraction(seq[h - 1], seq[h]) == central_ratio_even(m, k)
            assert seq[h + 1] == seq[h - 1] > seq[h]

    def test_dip_fails_both_predicates(self):
        for k in range(3, 30):
            seq = expand_family(k * k - 4, k)
            assert not is_unimodal(seq)[0]
            assert not is_strongly_unimodal(seq)[0]


class TestAOfU:
    def test_small_values(self):
        assert a_of_u(3, 3) == Fraction(1, 20)
        assert a_of_u(3, 4) == Fraction(2, 5)
        assert a_of_u(3, 6) == 20

    def test_zero_below_k(self):
        assert a_of_u(5, 0) == 0
        assert a_of_u(5, 4) == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            a_of_u(3, 7)
        with pytest.raises(ValueError):
            a_of_u(3, -1)

    def test_matches_binomial_ratio(self):
        # at m = k^2 - 3 the value is C(m, u-k) / C(m, u)
        for k in range(2, 10):
            m = k * k - 3
            for u in range(0, m + 1):
                expect = Fraction(binomial(m, u - k), binomial(m, u))
                assert a_of_u(k, u) == expect


class TestCPlusMinus:
    def test_examples(self):
        assert c_plus(3, 3) == 8
        assert c_plus(10, 40) == Fraction(2747, 1767)
        assert c_minus(3, 4) == Fraction(1, 8)

    def test_c_minus_vanishes_at_left_edge(self):
        for k in range(3, 12):
            assert c_minus(k, k) == 0

    def test_domains(self):
        with pytest.raises(ValueError):
            c_plus(3, 2)
        with pytest.raises(ValueError):
            c_minus(3, 6)

    def test_ratio_identities(self):
        # c_plus = a(u+1)/a(u) and c_minus = a(u-1)/a(u) on the interior
        for k in (3, 5, 8):
            for u in range(k, k * k - 4 + 1):
                a0 = a_of_u(k, u)
                assert c_plus(k, u) * a0 == a_of_u(k, u + 1)
                assert c_minus(k, u) * a0 == a_of_u(k, u - 1)


class TestBetaExact:
    def test_example_values(self):
        p2 = beta_exact(3, 2)
        assert p2.beta == Fraction(25, 14)
        p3 = beta_exact(3, 3)
        assert p3.beta == Fraction(7, 5)
        assert p3.b_factor == Fraction(16, 9)
        assert p3.a_factor == Fraction(63, 80)
        assert p3.factorization_ok

    def test_is_actual_coefficient_ratio(self):
        for k in (2, 3, 5, 7):
            m = k * k - 3
            seq = expand_family(m, k)
            for u in range(1, m):
                probe = beta_exact(k, u)
                expect = Fraction(seq[u] * seq[u], seq[u + 1] * seq[u - 1])
                assert probe.beta == expect

    def test_factorization_holds_on_interior(self):
        for k in range(3, 10):
            m = k * k - 3
            for u in range(1, m):
                probe = beta_exact(k, u)
                assert isinstance(probe, BetaProbe)
                assert probe.factorization_ok

    def test_domain(self):
        with pytest.raises(ValueError):
            beta_exact(3, 0)
        with pytest.raises(ValueError):
            beta_exact(3, 9)

    def test_no_factorization_past_interior(self):
        # beta itself extends to u = m + k - 1, the decomposition does not
        probe = beta_exact(3, 6)
        assert probe.beta > 0
        assert probe.b_factor is None
        assert probe.a_factor is None
        assert probe.factorization_ok is None


class TestInequalityProbe:
    def test_exact_example(self):
        probe = inequality_one_probe(3, 3)
        assert probe.lhs == Fraction(7, 9)
        assert probe.rhs == Fraction(17, 63)
        assert probe.holds
        assert probe.case_bound_first == 28
        assert probe.case_bound_second == 54
        assert not probe.case_bound_holds

    def test_larger_example(self):
        probe = inequality_one_probe(10, 40)
        assert probe.lhs == Fraction(98, 2280)
        assert probe.holds
        assert float(probe.rhs) == pytest.approx(0.000660, abs=5e-6)

    def test_holds_iff_beta_at_least_one(self):
        for k in (3, 5, 8, 10):
            for u in u_range(k):
                probe = inequality_one_probe(k, u)
                assert probe.holds == (beta_exact(k, u).beta >= 1)

    def test_case_pairs_frozen(self):
        assert case_polynomial_probe(3, 4) == (48, 60)
        assert case_polynomial_probe(10, 40) == (8432, 9530)
        assert case_polynomial_probe(10, 52) == (9632, 9770)

    def test_u_range_bounds(self):
        r = u_range(10)
        assert r.start == 10
        assert r.stop == (100 + 10 - 6) // 2 + 1

    def test_walk_matches_one_probe(self):
        for k in [*range(3, 41), 70, 71]:
            assert inequality_probes(k) == [inequality_one_probe(k, u) for u in u_range(k)]

    def test_row_matches_the_fraction_formula(self):
        for k in range(3, 13):
            for probe in inequality_probes(k):
                u = probe.u
                a, cp, cm = a_of_u(k, u), c_plus(k, u), c_minus(k, u)
                assert probe.rhs == ((cp + cm - 2) * a + (cp * cm - 1) * a * a) / (1 + a) ** 2

    def test_walk_is_empty_at_k2(self):
        assert list(u_range(2)) == []
        assert inequality_probes(2) == []

    def test_walk_domain(self):
        with pytest.raises(ValueError):
            inequality_probes(1)

    def test_domain(self):
        with pytest.raises(ValueError):
            inequality_one_probe(3, 2)
        with pytest.raises(ValueError):
            inequality_one_probe(3, max(u_range(3)) + 1)


class TestMinimalM:
    def test_examples(self):
        assert minimal_m(2, "strong") == 1
        assert minimal_m(7, "strong") == 46
        assert minimal_m(3, "unimodal") == 6

    def test_matches_linear_search(self):
        # the linear scan assumes no monotonicity in m
        for k in range(2, 10):
            for mode in ("strong", "unimodal"):
                got = minimal_m(k, mode)
                check = is_strongly_unimodal if mode == "strong" else is_unimodal
                m = 1
                while not check(expand_family(m, k))[0]:
                    m += 1
                assert got == m

    def test_threshold_is_sharp(self):
        for k in range(2, 12):
            m = minimal_m(k, "strong")
            assert m == predicted_threshold(k)
            assert is_strongly_unimodal(expand_family(m, k))[0]
            if m > 1:
                assert not is_strongly_unimodal(expand_family(m - 1, k))[0]

    def test_cap_exhausted(self):
        with pytest.raises(NotFoundError):
            minimal_m(4, "strong", cap=5)

    @pytest.mark.parametrize("mode", ["strong", "unimodal"])
    def test_passes_is_monotone_in_m(self, mode):
        for k in range(2, 8):
            verdicts = [_passes(m, k, mode) for m in range(1, k * k + 1)]
            first = verdicts.index(True)
            assert all(verdicts[first:])

    @pytest.mark.parametrize("mode", ["strong", "unimodal"])
    def test_cap_at_and_below_prediction(self, mode):
        for k in range(3, 9):
            p = predicted_threshold(k)
            assert minimal_m(k, mode, cap=p) == p
            with pytest.raises(NotFoundError):
                minimal_m(k, mode, cap=p - 1)

    @pytest.mark.parametrize("mode", ["strong", "unimodal"])
    def test_one_predicate_call(self, monkeypatch, mode):
        # the unimodal threshold comes from the lemma, with no call at all
        calls = _spy(monkeypatch)
        for k in (3, 7, 20):
            calls.clear()
            assert minimal_m(k, mode) == predicted_threshold(k)
            assert calls == (["family_report"] if mode == "strong" else [])

    @pytest.mark.parametrize("k", [2, 3, 7, 20, 80])
    def test_scan_builds_one_row(self, monkeypatch, k):
        calls = _spy(monkeypatch)
        assert scan_thresholds(k).match
        assert calls == ["family_report"]

    def test_scan_matches_the_two_mode_search(self):
        for k in [*range(2, 61), 80, 120]:
            assert scan_thresholds(k) == _two_mode_scan(k)

    def test_scan_matches_the_two_mode_search_at_a_cap(self):
        for k in [*range(3, 21), 60]:
            p = predicted_threshold(k)
            assert scan_thresholds(k, cap=p) == _two_mode_scan(k, cap=p)
            for scan in (scan_thresholds, _two_mode_scan):
                with pytest.raises(NotFoundError):
                    scan(k, cap=p - 1)

    def test_binary_search_when_the_prediction_fails(self, monkeypatch):
        # a family_report that makes k^2 - 3 fail the strong predicate and
        # first pass it at q sends strong-mode minimal_m to its binary
        # search above k^2 - 3, and scan_thresholds to match: false
        def patched(q):
            def report(m, k):
                return exactpoly.family_report(m, k)._replace(strongly_unimodal=m >= q)
            return report

        for k in range(3, 21):
            p = predicted_threshold(k)
            for q in (p + 1, p + 2, (p + k * k) // 2, k * k):
                monkeypatch.setattr(thresholds, "family_report", patched(q))
                assert minimal_m(k, "strong") == q
                assert minimal_m(k, "unimodal") == p
                row = scan_thresholds(k)
                assert (row.min_m_strong, row.min_m_unimodal, row.match) == (q, p, False)
                with pytest.raises(NotFoundError):
                    minimal_m(k, "strong", cap=q - 1)

    @pytest.mark.parametrize("k", [60, 80, 120, 200])
    def test_square_law_at_stress_sizes(self, k):
        row = scan_thresholds(k)
        assert row.min_m_strong == row.min_m_unimodal == k * k - 3
        assert row.match

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            minimal_m(4, "weird")

    def test_scan(self):
        rows = [scan_thresholds(k) for k in range(2, 6)]
        assert [r.k for r in rows] == [2, 3, 4, 5]
        assert [r.min_m_strong for r in rows] == [1, 6, 13, 22]
        assert all(r.match for r in rows)
        assert all(r.min_m_strong == r.min_m_unimodal == r.predicted for r in rows)


class TestGenericMinN:
    def test_examples(self):
        # one smoothing factor turns the m = 5, k = 3 family into m = 6
        assert generic_min_N([1, 5, 10, 11, 10, 11, 10, 5, 1]) == 1
        assert generic_min_N([1, 0, 0, 1]) == 6
        assert generic_min_N([1, 0, 1]) == 1
        assert generic_min_N([1, 2, 1]) == 0

    def test_one_term(self):
        assert generic_min_N([7]) == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            generic_min_N([1, -1, 1])
        with pytest.raises(ValueError):
            generic_min_N([0, 0])
        with pytest.raises(ValueError):
            generic_min_N([])

    def test_cap(self):
        with pytest.raises(NotFoundError):
            generic_min_N([1, 0, 1], cap=0)

    def test_result_is_minimal(self):
        from unimodal_lab.exactpoly import poly_mul

        for coeffs in ([1, 0, 1], [1, 5, 1], [2, 0, 0, 3]):
            n = generic_min_N(coeffs)
            prod = list(coeffs)
            for _ in range(n):
                prod = poly_mul(prod, [1, 1])
            assert is_strongly_unimodal(prod)[0]
            if n > 0:
                prev = list(coeffs)
                for _ in range(n - 1):
                    prev = poly_mul(prev, [1, 1])
                assert not is_strongly_unimodal(prev)[0]
