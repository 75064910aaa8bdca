import math

import mpmath
import pytest

from unimodal_lab.certmax import (
    BracketFailure,
    CertifiedMax,
    Interval,
    PreconditionViolation,
    bracket_critical,
    certified_alpha,
    limit_shape,
    limit_shape_deriv,
    shape_deriv_factor,
    tangent_upper_bound,
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
        # float cos(pi/2) is not exactly 0, so the pole shows up as a very
        # large negative value rather than the -inf sentinel
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
        h = 1e-6
        for z in (1.8, 2.1, 2.4, 2.9):
            fd = (limit_shape(z + h) - limit_shape(z - h)) / (2 * h)
            assert limit_shape_deriv(z) == pytest.approx(fd, rel=1e-6, abs=1e-9)

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
        iv = bracket_critical(1e-10)
        assert iv.width <= 1e-10
        assert shape_deriv_factor(iv.lo) < 0.0
        assert shape_deriv_factor(iv.hi) > 0.0
        assert iv.mid == pytest.approx(2.220675481777163, abs=1e-9)
        # the stationary point of the limit shape sits near 2.2214 * pi/pi
        assert abs(iv.mid - 2.2214) < 0.01

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            bracket_critical(0.0)


class TestTangentUpperBound:
    def test_quadratic(self):
        # -x^2 on [-0.1, 0.1]: tangents intersect at (0, 0.01)
        bound = tangent_upper_bound(
            -0.1, 0.1, func=lambda x: -x * x, deriv=lambda x: -2 * x
        )
        assert bound == pytest.approx(0.01, abs=1e-12)
        assert bound >= 0.0  # true max is 0

    def test_cosine(self):
        bound = tangent_upper_bound(
            -1.0, 1.0, func=math.cos, deriv=lambda x: -math.sin(x)
        )
        assert bound >= 1.0

    def test_slope_precondition(self):
        # both slopes positive: max not straddled
        with pytest.raises(PreconditionViolation):
            tangent_upper_bound(
                -0.3, -0.1, func=lambda x: -x * x, deriv=lambda x: -2 * x
            )

    def test_concavity_precondition(self):
        # x^2 is convex; a fabricated derivative passes the slope check
        with pytest.raises(PreconditionViolation):
            tangent_upper_bound(
                -0.5, 0.5, func=lambda x: x * x, deriv=lambda x: -x
            )

    def test_order_validation(self):
        with pytest.raises(ValueError):
            tangent_upper_bound(0.5, 0.5)


@pytest.fixture(scope="module")
def result():
    return certified_alpha()


class TestCertifiedAlpha:
    def test_structure(self, result):
        assert isinstance(result, CertifiedMax)
        assert result.evaluations > 0
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

    def test_tol_floor(self):
        with pytest.raises(ValueError):
            certified_alpha(tol=1e-12)
