import functools
import math
import random
import sys
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from rounding import mp_peak
import unimodal_lab
from unimodal_lab import envelope, kernels
from unimodal_lab.certmax import certified_alpha, limit_shape
from unimodal_lab.envelope import (
    MembershipCertificate,
    ThetaScan,
    ThresholdMax,
    _golden_max,
    _quartic_margin_small,
    defect_general,
    denominator_gap,
    envelope_defect,
    max_threshold,
    membership_certificate,
    poly_eval_circle,
    product_identity_residual,
    quartic_floor_check,
    sandwich_bounds,
    sandwich_check,
    smooth_part,
    threshold_value,
    variance,
)
from unimodal_lab.exactpoly import binomial, expand_family, poly_mul


class TestVariance:
    def test_closed_forms_match_coefficients(self):
        for m in (1, 4, 9, 12):
            row = [binomial(m, r) for r in range(m + 1)]
            assert variance(row) == Fraction(m, 4)
        for k in (2, 5, 7, 8):
            spike = [1] + [0] * (k - 1) + [1]
            assert variance(spike) == Fraction(k * k, 4)

    def test_small_examples(self):
        assert variance([1, 1]) == Fraction(1, 4)
        assert variance([0, 1, 1]) == Fraction(1, 4)

    def test_additive_over_products(self):
        for f, g in (([1, 2, 3], [2, 1]), ([1, 1, 1], [1, 0, 0, 4]), ([3], [1, 5])):
            prod = poly_mul(f, g)
            assert variance(prod) == variance(f) + variance(g)

    def test_family_variance(self):
        seq = expand_family(7, 4)
        expect = Fraction(7, 4) + Fraction(16, 4)
        assert variance(seq) == expect

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError):
            variance([1, -1])


class TestDefect:
    def test_zero_angle(self):
        assert envelope_defect(5, 3, 0.0) == 0.0
        assert envelope_defect(100, 9, 0.0) == 0.0

    def test_sign_tracks_threshold(self):
        for k, theta in ((5, 1.0), (7, 0.8), (9, 0.52)):
            val = threshold_value(k, theta)
            assert math.isfinite(val)
            hi = int(math.ceil(val)) + 1
            lo = int(math.floor(val)) - 1
            assert envelope_defect(hi, k, theta) > 0.0
            if lo >= 0:
                assert envelope_defect(lo, k, theta) < 0.0

    def test_general_matches_family(self):
        for m, k in ((5, 3), (9, 4)):
            coeffs = expand_family(m, k)
            for theta in (0.3, 1.1, 2.5):
                assert defect_general(coeffs, theta) == pytest.approx(
                    envelope_defect(m, k, theta), abs=1e-12
                )

    def test_poly_eval_circle(self):
        # (1 + z)^2 at z = i
        val = poly_eval_circle([1, 2, 1], math.pi / 2)
        assert val == pytest.approx((1 + 1j) ** 2, abs=1e-12)


class TestProductIdentity:
    def test_residual_small_on_random_triples(self):
        rng = random.Random(7)
        worst = 0.0
        for _ in range(100):
            nf = rng.randint(2, 6)
            ng = rng.randint(2, 6)
            f = [rng.uniform(-0.2, 0.2) for _ in range(nf)]
            g = [rng.uniform(-0.2, 0.2) for _ in range(ng)]
            f[0] += 1.0 - sum(f)
            g[0] += 1.0 - sum(g)
            theta = rng.uniform(0.0, math.pi)
            worst = max(worst, product_identity_residual(f, g, theta))
        assert worst <= 1e-12

    def test_exact_for_family_factors(self):
        binom = [binomial(6, r) for r in range(7)]
        spike = [1, 0, 0, 1]
        for theta in (0.4, 1.3, 2.9):
            assert product_identity_residual(binom, spike, theta) <= 1e-13


def _log_part(k, theta):
    # ln cos^2(k theta/2) / denominator_gap: L minus the smooth part
    s = math.sin(0.5 * theta) ** 2
    return math.log1p(-math.sin(0.5 * k * theta) ** 2) / denominator_gap(s)


class TestCurvePieces:
    def test_threshold_splits_into_parts(self):
        for k in (5, 9, 16):
            for theta in (0.2, 0.7, 1.9, 2.8):
                total = threshold_value(k, theta)
                if not math.isfinite(total):
                    continue
                parts = smooth_part(k, theta) + _log_part(k, theta)
                assert total == pytest.approx(parts, rel=1e-10)

    def test_smooth_part_decreasing(self):
        k = 9
        vals = [smooth_part(k, t) for t in [0.1 + 0.3 * j for j in range(10)]]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_log_part_nonpositive(self):
        # the log part is <= 0, so the curve never exceeds its smooth part
        for k in (5, 9, 12, 97):
            for theta in [0.05 + 0.1 * j for j in range(31)]:
                assert threshold_value(k, theta) <= smooth_part(k, theta)

    def test_log_part_vanishes_at_even_multiples(self):
        # at theta = 2 pi j / k, cos^2(k theta/2) = 1 up to rounding
        for k, j in ((9, 1), (8, 2), (12, 5), (97, 3)):
            theta = 2.0 * math.pi * j / k
            assert threshold_value(k, theta) == pytest.approx(smooth_part(k, theta), rel=1e-14)

    def test_sentinels(self):
        assert threshold_value(9, math.pi / 9) == float("-inf")
        assert threshold_value(9, math.pi - 1e-9) == float("-inf")
        assert threshold_value(10, 5 * math.pi / 10) == float("-inf")
        assert smooth_part(9, math.pi - 1e-9) == 0.0

    def test_negative_near_zero(self):
        assert threshold_value(9, 1e-4) == pytest.approx(-2241.0001083967377, rel=1e-12)

    def test_denominator_gap_crossover(self):
        s = kernels.GAP_SERIES_BELOW
        below = denominator_gap(s * (1.0 - 1e-12))
        above = denominator_gap(s)
        assert below == pytest.approx(above, rel=1e-13)

    def test_denominator_gap_saturates(self):
        assert denominator_gap(1.0) == float("inf")
        assert denominator_gap(0.5) == pytest.approx(-math.log(0.5) - 0.5, rel=1e-15)

    def test_singular_angles(self):
        # the odd multiples of pi/k inside (0, pi)
        for k in (9, 12):
            for t in range(1, k, 2):
                assert threshold_value(k, t * math.pi / k) == float("-inf")


class TestThetaScan:
    def test_defaults(self):
        scan = ThetaScan(9)
        assert scan.grid_points == 100_000

    def test_validation(self):
        with pytest.raises(ValueError):
            ThetaScan(1)
        with pytest.raises(ValueError):
            ThetaScan(9, grid_points=500)


class TestMaxThreshold:
    def test_k9_anchor(self):
        peak = max_threshold(ThetaScan(9))
        assert peak.max_value == pytest.approx(2064.9344518644716, rel=1e-9)
        assert peak.argmax_theta == pytest.approx(0.4934809319656666, abs=1e-6)
        assert peak.min_m == 2065
        assert not peak.near_integer
        assert peak.ratio_k4 == pytest.approx(peak.max_value / 9**4, rel=1e-15)

    def test_k12_anchor(self):
        peak = max_threshold(ThetaScan(12))
        assert peak.max_value == pytest.approx(6600.495908941541, rel=1e-9)
        assert peak.min_m == 6601
        assert not peak.near_integer

    def test_argmax_is_local_max(self):
        peak = max_threshold(ThetaScan(9))
        t = peak.argmax_theta
        assert threshold_value(9, t) >= threshold_value(9, t - 1e-5)
        assert threshold_value(9, t) >= threshold_value(9, t + 1e-5)

    def test_argmax_in_reduced_interval(self):
        for k in (9, 16):
            peak = max_threshold(ThetaScan(k, grid_points=20_000))
            assert math.pi / k < peak.argmax_theta <= 2 * math.pi / k

    def test_small_k_needs_no_warning(self):
        # both lemmas of the lobe reduction hold at every k >= 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            peak = max_threshold(ThetaScan(8, grid_points=20_000))
        assert peak.max_value == pytest.approx(1280.24048, rel=1e-6)
        assert peak.min_m == 1281

    @pytest.mark.parametrize("k", [30, 97, 200, 1000])
    def test_peak_within_8_ulp_of_mpmath(self, k):
        # refined to float resolution, the peak is as good as the float
        # evaluation of L
        peak = max_threshold(ThetaScan(k))
        exact = mp_peak(k, peak.argmax_theta)
        assert abs(mpmath.mpf(peak.max_value) - exact) <= 8 * math.ulp(peak.max_value)
        assert peak.min_m == int(mpmath.ceil(exact))

    def test_grid_point_stays_when_the_refinement_is_worse(self, monkeypatch):
        # the golden search keeps its better last probe, which may lie below
        # the best grid point; max_threshold then reports the grid point
        grid_val, grid_theta = kernels.grid_max_threshold(9, math.pi / 9, 2 * math.pi / 9, 100_000)
        monkeypatch.setattr(envelope, "_golden_max", lambda f, a, b: (a, grid_val - 1.0))
        peak = max_threshold(ThetaScan(9))
        assert (peak.max_value, peak.argmax_theta) == (grid_val, grid_theta)
        assert peak.min_m == 2065

    def test_million_point_scan_stays_small(self):
        # one whole-grid scan of 10^6 points peaks at about 86 MiB (some 25
        # arrays of 8 MB); the blocked scan keeps a few cache-sized arrays
        tracemalloc.start()
        try:
            max_threshold(ThetaScan(500, grid_points=1_000_000))
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak_bytes < 8e6

    def test_ten_million_point_scan_stays_small(self):
        # the cell bounds are computed in chunks, so memory stays flat in n
        tracemalloc.start()
        try:
            max_threshold(ThetaScan(500, grid_points=10_000_000))
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak_bytes < 8e6


class TestGoldenMax:
    """The refinement stops at float resolution, with no tolerance."""

    def test_constant_function(self):
        x, y = _golden_max(lambda t: 1.0, 1.0, 2.0)
        assert 1.0 <= x <= 2.0 and y == 1.0

    def test_bracket_one_ulp_wide(self):
        a = 0.7
        b = math.nextafter(a, math.inf)
        x, y = _golden_max(lambda t: -((t - 0.2) ** 2), a, b)
        assert x in (a, b)
        assert math.isfinite(y)

    def test_parabola_lands_on_the_vertex(self):
        calls = []

        def f(t):
            calls.append(t)
            return -((t - 0.3) ** 2)

        x, y = _golden_max(f, 0.29, 0.31)
        assert abs(x - 0.3) <= 2 * math.ulp(0.3)
        assert y == f(x)
        # the bracket shrinks by the golden ratio down to a few ulps
        assert len(calls) <= 80


class TestLobeReduction:
    """The lemmas behind max_threshold's reduction to (pi/k, 2 pi/k]."""

    def test_refused_only_beyond_the_verified_range(self):
        # the reduction itself never refuses; the verdict is proven up to
        # _K_VERIFIED, and every k above it is refused before any scan
        assert envelope._K_VERIFIED == 1000
        assert max_threshold(ThetaScan(1000, 1000)).min_m == 322931380716
        with pytest.raises(unimodal_lab.OutOfRange, match="k <= 1000"):
            max_threshold(ThetaScan(1001, 1000))

    @pytest.mark.parametrize("k", [2480, 3116, 3397, 3545, 5443, 12000, 10**80])
    def test_large_k_is_refused(self, k, monkeypatch):
        # the float peak gives a wrong ceiling from k = 2480 (one too high
        # there, one too low at 5443), so no k above 1000 reaches a scan
        def forbidden(*args):
            raise AssertionError("max_threshold scanned a refused k")

        monkeypatch.setattr(kernels, "grid_max_threshold", forbidden)
        with pytest.raises(unimodal_lab.OutOfRange):
            max_threshold(ThetaScan(k))

    def test_reduction_never_consults_smooth_part(self, monkeypatch):
        # the lobe lemmas are exact, so no runtime tail check exists:
        # max_threshold gives the same peak with smooth_part unusable
        want = max_threshold(ThetaScan(30, grid_points=20_000))

        def forbidden(k, theta):
            raise AssertionError("max_threshold called smooth_part")

        monkeypatch.setattr(envelope, "smooth_part", forbidden)
        assert max_threshold(ThetaScan(30, grid_points=20_000)) == want

    @pytest.mark.parametrize("k", [3, 4, 5, 9, 12, 30, 97, 200, 1000, 3397])
    def test_negative_before_and_bounded_after_the_lobe(self, k):
        # L < 0 on (1e-6, pi/k) and L <= smooth_part(k, 2 pi/k) on
        # (2 pi/k, pi - 1e-6], on a NumPy grid and a scalar grid
        lobe_lo, lobe_hi = math.pi / k, 2.0 * math.pi / k
        tail = smooth_part(k, lobe_hi)
        head = kernels.theta_grid(1e-6, lobe_lo, 20_000)[:-1]
        rest = kernels.theta_grid(lobe_hi, math.pi - 1e-6, 20_000)
        assert (kernels.threshold_values(k, head) < 0.0).all()
        assert (kernels.threshold_values(k, rest) <= tail).all()
        for i in range(1, 500):
            assert threshold_value(k, 1e-6 + (lobe_lo - 1e-6) * (i / 500)) < 0.0
        for i in range(1, 501):
            assert threshold_value(k, lobe_hi + (math.pi - 1e-6 - lobe_hi) * (i / 500)) <= tail

    def test_negative_next_to_the_singular_angle(self):
        # L < 0 within 1e-8 pi/k above pi/k, in both lanes, so the lobe
        # scan needs no mask there
        j = np.arange(1, 11)
        for k in [*range(2, 1001), 3116, 12000, 10**6, 10**9]:
            theta = (math.pi / k) * (1.0 + j * 1e-9)
            assert (kernels.threshold_values(k, theta) < 0.0).all(), k
            assert all(threshold_value(k, t) < 0.0 for t in theta.tolist()), k

    def test_first_point_of_a_hundred_million_point_lobe(self):
        # at k = 3 the first grid point lies within 1e-8 pi/k of pi/k, and
        # the peak is found far from it
        k, n = 3, 10**8
        lo = math.pi / k
        first = float(next(kernels.theta_blocks(lo, 2.0 * lo, n))[0])
        assert abs(first - lo) < 1e-8 * lo
        peak = max_threshold(ThetaScan(k, grid_points=n))
        assert peak.min_m == 21
        assert peak.argmax_theta > 1.1 * lo


@functools.lru_cache(maxsize=None)
def _peak(k, grid_points=10_000):
    return max_threshold(ThetaScan(k, grid_points=grid_points))


class TestMembership:
    def test_member_at_threshold(self):
        peak = _peak(9, 100_000)
        cert = membership_certificate(2065, peak)
        assert isinstance(cert, MembershipCertificate)
        assert cert.member
        assert cert.min_margin == pytest.approx(0.0655481355242955, abs=1e-6)
        assert cert.witness_theta == pytest.approx(0.49348093, abs=1e-5)
        assert (cert.m, cert.k, cert.grid_points) == (2065, 9, 100_000)

    def test_nonmember_below_threshold(self):
        cert = membership_certificate(2064, _peak(9, 100_000))
        assert not cert.member
        assert cert.min_margin == pytest.approx(-0.9344518644757045, abs=1e-6)

    def test_k12_margins(self):
        peak = _peak(12, 100_000)
        assert membership_certificate(6601, peak).member
        assert not membership_certificate(6600, peak).member

    def test_validation(self):
        peak = _peak(9)
        with pytest.raises(ValueError):
            membership_certificate(0, peak)
        with pytest.raises(ValueError):
            membership_certificate(2.5, peak)

    def test_m_up_to_the_largest_float(self):
        # the margin is a float, so m must convert to one: the largest float
        # still gets a verdict, and anything above it a ValueError naming
        # the bound, not an OverflowError
        peak = _peak(9)
        top = int(sys.float_info.max)
        cert = membership_certificate(top, peak)
        assert cert.member and cert.min_margin == sys.float_info.max
        for m in (top + 1, 10**400):
            with pytest.raises(ValueError, match=r"at most sys\.float_info\.max"):
                membership_certificate(m, peak)

    @pytest.mark.parametrize("top, member", [(9.0, True), (math.nextafter(9.0, 10.0), False)])
    def test_verdict_is_the_sign_of_the_margin(self, top, member):
        # m - max_value is decided by its sign alone, with no band
        peak = ThresholdMax(9, top, 1.25, 10, top / 9**4, True, 1000)
        cert = membership_certificate(9, peak)
        assert cert.member is member
        assert cert.min_margin == 9 - top
        assert cert.witness_theta == 1.25


class TestMarginShift:
    @pytest.mark.parametrize("k", [9, 12, 30, 97, 200, 1000])
    def test_member_flips_exactly_at_m_of_k(self, k):
        peak = _peak(k, 100_000)
        m_of_k = peak.min_m
        assert m_of_k == int(mpmath.ceil(mp_peak(k, peak.argmax_theta)))
        certs = {m: membership_certificate(m, peak) for m in range(m_of_k - 2, m_of_k + 3)}
        assert [c.member for c in certs.values()] == [False, False, True, True, True]
        assert certs[m_of_k - 1].min_margin < 0.0 <= certs[m_of_k].min_margin
        for m, cert in certs.items():
            assert cert.min_margin == m - peak.max_value
            assert cert.witness_theta == peak.argmax_theta
        # monotone beyond the window too
        assert not membership_certificate(1, peak).member
        assert membership_certificate(10 * m_of_k, peak).member

    def test_every_verified_peak_is_far_from_an_integer(self):
        # the facts that let max_threshold take ceil(top) and the
        # certificates the sign of m - top: at every k <= 1000 the peak lies
        # at least 7e-4 from its nearest integer (the least is 7.92e-4, at
        # k = 393), far beyond its float error, on a coarse grid and on the
        # default one, which agree on m(k)
        for k in range(2, 1001):
            coarse = max_threshold(ThetaScan(k, 1000))
            peak = max_threshold(ThetaScan(k))
            for p in (coarse, peak):
                assert abs(p.max_value - round(p.max_value)) >= 7e-4, k
                assert not p.near_integer, k
            assert coarse.min_m == peak.min_m, k
            assert membership_certificate(peak.min_m, peak).member, k
            assert not membership_certificate(peak.min_m - 1, peak).member, k


class TestQuarticFloor:
    def test_nonnegative_on_grid(self):
        hi = 1.0 / (2.0 * math.sqrt(2.0))
        n = 2000
        for i in range(1, n + 1):
            psi = hi * (i / n)
            ok, margin = quartic_floor_check(psi)
            assert ok, f"floor fails at psi={psi}: margin={margin}"
            assert margin >= 0.0

    def test_series_matches_direct_at_crossover(self):
        psi = 0.05
        s = math.sin(psi) ** 2
        direct = denominator_gap(s) - 0.5 * psi**4
        series = _quartic_margin_small(psi)
        assert series == pytest.approx(direct, rel=1e-5)

    def test_leading_order(self):
        # margin ~ psi^8 / 60 as psi -> 0
        psi = 1e-3
        _, margin = quartic_floor_check(psi)
        assert margin == pytest.approx(psi**8 / 60.0, rel=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            quartic_floor_check(0.0)
        with pytest.raises(ValueError):
            quartic_floor_check(math.pi / 2 + 0.1)


@pytest.fixture(scope="module")
def alpha():
    enc = certified_alpha().value_enclosure
    return enc.lo, enc.hi


class TestSandwich:
    def test_k9_report(self, alpha):
        rep = sandwich_check(9)
        assert rep.upper_ok
        assert rep.n_upper_violations == 0
        assert not rep.lower_ok
        assert rep.n_lower_violations > 0
        lo_b, hi_b = sandwich_bounds(9, alpha[0], alpha[1])
        assert lo_b <= _peak(9).ratio_k4 <= hi_b

    def test_k16_in_enclosure(self, alpha):
        assert sandwich_check(16).upper_ok
        lo_b, hi_b = sandwich_bounds(16, alpha[0], alpha[1])
        assert lo_b <= _peak(16).ratio_k4 <= hi_b

    def test_bounds_are_the_max_level_sandwich(self, alpha):
        lo_b, hi_b = sandwich_bounds(12, alpha[0], alpha[1])
        assert lo_b == alpha[0] / (1.0 + 8.0 / 144) - 1e-9
        assert hi_b == alpha[1] + 1e-9

    def test_hundred_thousand_points_stay_small(self):
        # the grid is walked in blocks; the whole-grid arrays peaked at 7.7 MiB
        tracemalloc.start()
        try:
            sandwich_check(500, grid_points=100_000)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak_bytes < 3e6

    @pytest.mark.parametrize("k", [9, 12, 16, 30])
    def test_matches_pointwise_reference(self, k):
        # the per-point loop sandwich_check replaced, kept as the reference
        n = 10_000
        lo, hi = math.pi / k, 2.0 * math.pi / k
        k4 = float(k) ** 4
        slack = 1.0 + 8.0 / (k * k)
        n_up = 0
        dn = []
        for i in range(1, n + 1):
            theta = lo + (hi - lo) * (i / n)
            ratio = threshold_value(k, theta) / k4
            d = limit_shape(0.5 * k * theta)
            n_up += ratio > d + 1e-9
            if ratio < d / slack - 1e-9:
                dn.append(theta)
        rep = sandwich_check(k, grid_points=n)
        assert (rep.n_upper_violations, rep.n_lower_violations) == (n_up, len(dn))
        if k == 9:
            # the lower squeeze fails just past the left singular angle
            assert math.pi / 9 < dn[0] < 1.2 * math.pi / 9
