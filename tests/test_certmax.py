import math

import mpmath
import pytest

from unimodal_lab.certmax import (
    BracketFailure,
    CertifiedMax,
    Interval,
    certified_alpha,
    limit_shape,
    shape_deriv_factor,
)


def _mp_shape(z):
    z = mpmath.mpf(z)
    return 2 / z**2 + 2 * mpmath.log(mpmath.cos(z) ** 2) / z**4


def _mp_factor(z):
    z = mpmath.mpf(z)
    return z**2 + z * mpmath.tan(z) + 2 * mpmath.log(mpmath.cos(z) ** 2)


class TestLimitShape:
    def test_value_at_pi(self):
        # cos^2(pi) = 1, so only the smooth term survives
        assert limit_shape(math.pi) == 2.0 / math.pi**2

    def test_plunges_near_half_pi(self):
        # float cos(pi/2) is not exactly 0, nor is any double's cosine, so
        # the pole shows up as a very large negative value
        assert limit_shape(math.pi / 2) < -20.0
        assert limit_shape(math.pi / 2 + 1e-9) < limit_shape(2.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            limit_shape(0.0)
        with pytest.raises(ValueError):
            limit_shape(-1.0)
        with pytest.raises(ValueError):
            shape_deriv_factor(0.0)

    def test_against_mpmath(self):
        mpmath.mp.dps = 30
        for z in (1.7, 2.0, 2.2, 2.5, 3.0):
            assert limit_shape(z) == pytest.approx(float(_mp_shape(z)), rel=1e-13)
            assert shape_deriv_factor(z) == pytest.approx(float(_mp_factor(z)), rel=1e-13)

    def test_factor_values(self):
        assert shape_deriv_factor(2.2) == pytest.approx(-0.30311654010669065, rel=1e-12)
        assert shape_deriv_factor(math.pi / math.sqrt(2)) == pytest.approx(
            0.011065768648709895, rel=1e-9
        )

    def test_deriv_matches_finite_difference(self):
        # D' = -4 p / z^5, the identity the mean-value bound in
        # certified_alpha rests on
        h = 1e-6
        for z in (1.8, 2.1, 2.4, 2.9):
            fd = (limit_shape(z + h) - limit_shape(z - h)) / (2 * h)
            assert -4.0 * shape_deriv_factor(z) / z**5 == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_factor_derivative_positive(self):
        # p' = 2z - 3 tan z + z sec^2 z > 0 on (pi/2, pi), so D has one
        # critical point there, a maximum
        lo, hi, h = math.pi / 2 + 1e-3, math.pi - 1e-3, 1e-7
        for j in range(41):
            z = lo + (hi - lo) * j / 40
            deriv = 2 * z - 3 * math.tan(z) + z / math.cos(z) ** 2
            fd = (shape_deriv_factor(z + h) - shape_deriv_factor(z - h)) / (2 * h)
            assert deriv > 0.0
            assert deriv == pytest.approx(fd, rel=1e-5)

    def test_factor_increasing_on_interval(self):
        zs = [math.pi / 2 + 0.01 + 0.1 * j for j in range(15) if math.pi / 2 + 0.01 + 0.1 * j < math.pi]
        vals = [shape_deriv_factor(z) for z in zs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestInterval:
    def test_properties(self):
        iv = Interval(1.0, 3.0)
        assert iv.width == 2.0
        assert iv.mid == 2.0
        assert iv.contains(1.0) and iv.contains(3.0) and iv.contains(2.5)
        assert not iv.contains(0.9)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_degenerate_allowed(self):
        assert Interval(2.0, 2.0).width == 0.0


class TestBracketCritical:
    def test_bracket(self):
        iv = certified_alpha().crit_bracket
        assert iv.width <= 1e-10
        assert shape_deriv_factor(iv.lo) < 0.0
        assert shape_deriv_factor(iv.hi) > 0.0
        assert iv.mid == pytest.approx(2.220675481777163, abs=1e-9)
        # the stationary point of the limit shape sits near 2.2214 * pi/pi
        assert abs(iv.mid - 2.2214) < 0.01


@pytest.fixture(scope="module")
def result():
    return certified_alpha()


class TestCertifiedAlpha:
    def test_structure(self, result):
        assert isinstance(result, CertifiedMax)
        # the bisection's 36 evaluations of p, then p(a), D(a) and D(b)
        assert result.evaluations == 39
        assert result.crit_bracket.width <= 1e-10

    def test_enclosure_is_tight(self, result):
        enc = result.value_enclosure
        assert enc.width <= 5e-4
        assert enc.width <= 1e-6

    def test_contains_max_value(self, result):
        enc = result.value_enclosure
        assert enc.contains(limit_shape(result.crit_bracket.mid))
        mpmath.mp.dps = 40
        z_star = mpmath.findroot(_mp_factor, mpmath.mpf("2.2206754818"))
        assert enc.contains(float(_mp_shape(z_star)))

    def test_four_decimal_value(self, result):
        enc = result.value_enclosure
        assert round(enc.mid, 4) == 0.3229
        assert enc.lo <= 0.32295 and enc.hi >= 0.32285
