import ast
import inspect
import math
import random
import sys
import textwrap
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rounding import count_nonneg_threshold, mp_threshold, threshold_rounding_bound
from unimodal_lab import kernels
from unimodal_lab.certmax import limit_shape
from unimodal_lab.envelope import _K_VERIFIED, denominator_gap, threshold_value

PI = math.pi


def _grid(lo, hi, n):
    return [lo + (hi - lo) * (i / n) for i in range(1, n + 1)]


def _whole_grid_max(k, lo, hi, n):
    # the whole-grid argmax, the reference for grid_max_threshold's zoom
    theta = kernels.theta_grid(lo, hi, n)
    vals = kernels.threshold_values(k, theta)
    i = int(np.argmax(vals))
    v = float(vals[i])
    if not math.isfinite(v):
        return float("-inf"), float("nan")
    return v, float(theta[i])


B = kernels.GRID_BLOCK


def test_backend_is_pure():
    assert kernels.backend() == "pure"


class TestAgainstScalarReference:
    @pytest.mark.parametrize("k", [9, 12, 16, 24])
    def test_max_matches_pointwise_evaluation(self, k):
        lo, hi, n = PI / k, 2 * PI / k, 5_000
        got_v, got_t = kernels.grid_max_threshold(k, lo, hi, n)
        best_v, best_t = float("-inf"), float("nan")
        for theta in _grid(lo, hi, n):
            v = threshold_value(k, theta)
            if v > best_v:
                best_v, best_t = v, theta
        assert got_v == pytest.approx(best_v, rel=1e-12)
        assert got_t == pytest.approx(best_t, abs=1e-12)

    @pytest.mark.parametrize("k", [9, 24])
    def test_min_margin_matches_pointwise_evaluation(self, k):
        lo, hi, n = 1e-6, PI - 1e-6, 20_000
        m = float(k**4 // 3)
        got_v, got_t = kernels.grid_min_margin(m, k, lo, hi, n)
        best_v, best_t = float("inf"), float("nan")
        for theta in _grid(lo, hi, n):
            v = m - threshold_value(k, theta)
            if v < best_v:
                best_v, best_t = v, theta
        # the margin is a difference of curve-scale quantities, so it is
        # judged relative to that scale, not to the margin itself
        assert abs(got_v - best_v) <= 1e-12 * max(1.0, m)
        assert got_t == pytest.approx(best_t, abs=1e-12)

    @pytest.mark.parametrize("k", [9, 16, 24])
    def test_count_nonneg_matches_pointwise_evaluation(self, k):
        lo, hi, n = PI / k, 2 * PI / k, 20_000
        got = count_nonneg_threshold(k, lo, hi, n)
        want = sum(1 for theta in _grid(lo, hi, n) if threshold_value(k, theta) >= 0.0)
        assert got > 0
        assert abs(got - want) <= 2

    def test_threshold_values_match_scalar_branches(self):
        k = 9
        theta = np.array([1e-7, 1e-3, 0.3, PI / k, 3 * PI / k, 2.5, PI - 1e-7, PI])
        got = kernels.threshold_values(k, theta)
        for g, t in zip(got, theta):
            want = threshold_value(k, float(t))
            if math.isinf(want):
                assert g == want
            else:
                assert g == pytest.approx(want, rel=1e-12)

    def test_grid_max_limit_shape_matches_scalar(self):
        lo, hi, n = PI / 2 + 1e-6, PI - 1e-6, 50_000
        got_v, got_z = kernels.grid_max_limit_shape(lo, hi, n)
        best_v, best_z = max((limit_shape(z), z) for z in _grid(lo, hi, n))
        assert got_v == pytest.approx(best_v, rel=1e-12)
        assert abs(got_z - best_z) <= (hi - lo) / n + 1e-15
        assert got_v == pytest.approx(0.3229, abs=5e-4)

    def test_limit_shape_values_match_scalar(self):
        z = np.array([0.5, 1.0, PI / 2 + 1e-6, 2.2, PI - 1e-6, 4.0])
        got = kernels.limit_shape_values(z)
        for g, t in zip(got, z):
            assert g == pytest.approx(limit_shape(float(t)), rel=1e-12)


class TestBlockedGridMax:
    @pytest.mark.parametrize(
        "n, k",
        [(n, k) for n in (1, 1000, B - 1, B, B + 1, 3 * B + 7, 1_000_000) for k in (2, 3, 9, 31, 32, 97, 1000)]
        + [(n, k) for n in (2_097_153, 3_000_001) for k in (2, 9, 97, 1000)],
    )
    def test_lobe_matches_whole_grid_bit_for_bit(self, n, k):
        # repr round-trips every float and prints nan alike, so equal reprs
        # are equal bits (k = 2, n = 1 scans only theta = pi: (-inf, nan))
        lo, hi = PI / k, 2 * PI / k
        got = kernels.grid_max_threshold(k, lo, hi, n)
        assert repr(got) == repr(_whole_grid_max(k, lo, hi, n))

    def test_ties_go_to_the_first_index_across_blocks(self, monkeypatch):
        # a constant curve ties at every index, in every zoom round
        monkeypatch.setattr(kernels, "threshold_values", lambda k, theta: np.full_like(theta, 7.0))
        lo, hi, n = PI / 9, 2 * PI / 9, 3 * B + 7
        assert kernels.grid_max_threshold(9, lo, hi, n) == (7.0, lo + (hi - lo) * (1 / n))

    @pytest.mark.parametrize("n", [3 * B + 7, 10**9])
    def test_ties_go_to_the_first_index_of_a_later_plateau(self, monkeypatch, n):
        # a curve that rises, then stays constant from an angle inside the
        # lobe: the zoom keeps the plateau's first index
        lo, hi = PI / 9, 2 * PI / 9
        start = lo + 0.3 * (hi - lo)
        monkeypatch.setattr(kernels, "threshold_values", lambda k, theta: np.minimum(theta, start))
        v, theta = kernels.grid_max_threshold(9, lo, hi, n)
        i = math.ceil(0.3 * n)
        while lo + (hi - lo) * ((i - 1) / n) >= start:
            i -= 1
        while lo + (hi - lo) * (i / n) < start:
            i += 1
        assert (v, theta) == (start, lo + (hi - lo) * (i / n))


class TestPrunedScan:
    """The lobe zoom against the whole-grid argmax, bit for bit."""

    @pytest.mark.parametrize("k", range(2, 1001, 37))
    def test_lobe_every_37th_k(self, k):
        lo, hi = PI / k, 2 * PI / k
        got = kernels.grid_max_threshold(k, lo, hi, 100_000)
        assert repr(got) == repr(_whole_grid_max(k, lo, hi, 100_000))

    @pytest.mark.parametrize("k", [3116, 3397, 6500, 12000, 10**6, 10**9])
    @pytest.mark.parametrize("n", [100_000, 1_000_000])
    def test_lobe_large_k(self, k, n):
        lo, hi = PI / k, 2 * PI / k
        got = kernels.grid_max_threshold(k, lo, hi, n)
        assert repr(got) == repr(_whole_grid_max(k, lo, hi, n))

    @settings(max_examples=200)
    @given(st.floats(0.3, 9.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 200_000))
    def test_random_windows(self, log_k, a, b, n):
        # log-uniform k to 10^9 and a window of the lobe, either way round;
        # pi/k (1 + f) never rounds past 2 pi/k, which is exactly 2 (pi/k)
        k = max(2, int(10**log_k))
        lo, hi = (PI / k) * (1.0 + a), (PI / k) * (1.0 + b)
        got = kernels.grid_max_threshold(k, lo, hi, n)
        assert repr(got) == repr(_whole_grid_max(k, lo, hi, n))

    @pytest.mark.parametrize("k", [2, 3, 9, 97, 1000])
    @pytest.mark.parametrize("rel_gap", [0.0, 1e-8, 1e-3])
    def test_window_from_the_singular_end(self, k, rel_gap):
        # a window that starts on pi/k, where L is the -inf sentinel, or just
        # past it, where L is far below 0, walked away from it and towards it
        n = k * (100_000 // k) - 1
        near, far = (PI / k) * (1.0 + rel_gap), 2 * PI / k
        for lo, hi in ((near, far), (far, near)):
            got = kernels.grid_max_threshold(k, lo, hi, n)
            assert repr(got) == repr(_whole_grid_max(k, lo, hi, n)), (lo, hi)

    @pytest.mark.parametrize("k", [2, 9, 97, 1000])
    @pytest.mark.parametrize("side", ["rising", "falling"])
    def test_window_on_one_side_of_the_peak(self, k, side):
        # the first best sample of every round is an end of the window, and
        # the maximum is the grid point nearest the peak
        _, peak = _whole_grid_max(k, PI / k, 2 * PI / k, 100_000)
        if side == "rising":
            lo, hi = PI / k, PI / k + 0.5 * (peak - PI / k)
            want = hi
        else:
            lo, hi = peak + 0.5 * (2 * PI / k - peak), 2 * PI / k
            want = lo + (hi - lo) * (1 / 100_000)
        got = kernels.grid_max_threshold(k, lo, hi, 100_000)
        assert repr(got) == repr(_whole_grid_max(k, lo, hi, 100_000))
        assert got[1] == want

    @pytest.mark.parametrize("n", [2, 64, 65, 66, 129, 130, 64 * 65, 64 * 65 + 1])
    def test_grid_sizes_around_the_sample_count(self, n):
        # n - 1 = 64 is the largest span left to the last window, and the
        # first round's step doubles past each 64 (2^j) span
        for k in (2, 9, 1000):
            for lo, hi in ((PI / k, 2 * PI / k), (2 * PI / k, PI / k)):
                got = kernels.grid_max_threshold(k, lo, hi, n)
                assert repr(got) == repr(_whole_grid_max(k, lo, hi, n)), (k, lo, hi)

    @pytest.mark.parametrize("k", [2, 9, 1000])
    def test_window_outside_the_lobe_raises(self, k):
        lo, hi = PI / k, 2 * PI / k
        windows = [
            (1e-6, PI - 1e-6),
            (1e-9, lo * (1.0 - 1e-9)),
            (3 * lo, min(5 * lo, PI)),
            (math.nextafter(lo, 0.0), hi),
            (lo, math.nextafter(hi, 4.0)),
            (hi, lo * 0.5),
            (math.nan, hi),
        ]
        for window in windows:
            with pytest.raises(ValueError, match="inside"):
                kernels.grid_max_threshold(k, *window, 1000)

    @pytest.mark.parametrize("n", [0, -1])
    def test_fewer_than_one_point_raises(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            kernels.grid_max_threshold(9, PI / 9, 2 * PI / 9, n)

    @pytest.mark.parametrize("k", [2, 9, 1000, 10**9])
    def test_evaluation_budget_on_a_billion_point_lobe(self, monkeypatch, k):
        sizes = []

        def spy(k, theta, _fn=kernels.threshold_values):
            sizes.append(theta.size)
            return _fn(k, theta)

        monkeypatch.setattr(kernels, "threshold_values", spy)
        v, theta = kernels.grid_max_threshold(k, PI / k, 2 * PI / k, 10**9)
        assert v > 0.0 and PI / k < theta < 2 * PI / k
        assert len(sizes) <= 7 and max(sizes) <= 129, sizes

    def test_evaluates_a_few_percent_of_a_million_point_lobe(self, monkeypatch):
        from unimodal_lab.envelope import ThetaScan, max_threshold

        points = []

        def spy(k, theta, _fn=kernels.threshold_values):
            points.append(theta.size)
            return _fn(k, theta)

        monkeypatch.setattr(kernels, "threshold_values", spy)
        max_threshold(ThetaScan(500, grid_points=1_000_000))
        assert 0 < sum(points) < 0.03 * 1_000_000


class TestSelect:
    def test_ops_hold_exactly_the_five_entries(self):
        want = {"sin", "cos", "log", "log1p", "select"}
        assert set(vars(kernels.SCALAR_OPS)) == want
        assert set(vars(kernels.ARRAY_OPS)) == want

    # limit_shape has no branch: no double's cosine is 0
    @pytest.mark.parametrize("name, selects", [("threshold", 1), ("gap", 1), ("limit_shape", 0)],
                             ids=["threshold", "gap", "limit_shape"])
    def test_formulas_branch_only_through_select(self, name, selects):
        tree = ast.parse(textwrap.dedent(inspect.getsource(getattr(kernels, name))))
        assert not [node for node in ast.walk(tree) if isinstance(node, (ast.If, ast.IfExp))]
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        attrs = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
        assert not (names | set(attrs)) & {"where", "any"}
        assert attrs.count("select") == selects

    def test_gap_straddling_the_cutoff_is_the_where_of_both_branches(self):
        cut = kernels.GAP_SERIES_BELOW
        s = np.linspace(0.5 * cut, 2.0 * cut, 1001)
        series = s / 9.0
        for n in range(8, 1, -1):
            series = (series + 1.0 / n) * s
        series = series * s
        want = np.where(s < cut, series, -np.log1p(-s) - s)
        assert np.array_equal(kernels.gap(s, kernels.ARRAY_OPS), want)

    def test_runs_only_the_branches_needed(self):
        # a uniform c runs one branch on the whole arrays; a mixed c runs
        # each branch on the elements it keeps, and no other
        def boom(*args):
            raise AssertionError("branch not needed")

        seen = []

        def spy(f):
            def branch(*args):
                seen.append([x.tolist() for x in args])
                return f(*args)

            return branch

        select = kernels.ARRAY_OPS.select
        x, y = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])
        got = select(np.array([True, False, True]), spy(np.add), spy(np.subtract), x, y)
        assert got.tolist() == [5.0, -3.0, 9.0]
        assert seen == [[[1.0, 3.0], [4.0, 6.0]], [[2.0], [5.0]]]
        assert select(np.zeros(3, bool), boom, np.add, x, y).tolist() == [5.0, 7.0, 9.0]
        # an all-true result is filled to c's shape
        got = select(np.ones(3, bool), lambda *args: -math.inf, boom, x, y)
        assert got.dtype == np.float64 and got.tolist() == [-math.inf] * 3
        assert kernels.SCALAR_OPS.select(True, lambda a: a + 1.0, boom, 1.0) == 2.0
        assert kernels.SCALAR_OPS.select(False, boom, lambda a, b: a - b, 1.0, 3.0) == -2.0

    def test_threshold_at_pi_alone_is_the_float_sentinel(self):
        got = kernels.threshold_values(2, np.array([PI]))
        assert got.dtype == np.float64
        assert got.tolist() == [-math.inf]


_LANES = {
    "array": (kernels.ARRAY_OPS, np.where),
    "scalar": (kernels.SCALAR_OPS, lambda c, a, b: a if c else b),
}


def _clamped(k, theta, ops, where):
    # the formulas with every branch evaluated at every point, their
    # arguments clamped so that no log sees 0 or less, and the sentinels
    # selected last: the reference for select. Returns L(k, theta), the gap
    # at the clamped s, and D(theta), which has no branch (no double's
    # cosine is 0).
    half = 0.5 * theta
    s, q = ops.sin(half), ops.sin(k * half)
    s, q = s * s, q * q
    s_c = where(s >= 1.0, 0.5, s)
    q_c = where(q >= 1.0, 0.0, q)
    series = s_c / 9.0
    for n in range(8, 1, -1):
        series = (series + 1.0 / n) * s_c
    series = series * s_c
    g = where(s_c < kernels.GAP_SERIES_BELOW, series, -ops.log1p(-s_c) - s_c)
    L = where((s >= 1.0) | (q >= 1.0), -math.inf, ((k * k) * s_c + ops.log1p(-q_c)) / g)
    c = ops.cos(theta)
    z2 = theta * theta
    D = 2.0 / z2 + 2.0 * ops.log(c * c) / (z2 * z2)
    return L, s_c, g, D


def _same_bits_both_lanes(k, theta):
    # the array lane on the whole grid, the scalar lane at each point; any
    # floating-point error, as log1p(-1) at a point select should have
    # kept from its branch, raises
    with np.errstate(all="raise"):
        for lane, points in (("array", [theta]), ("scalar", theta.tolist())):
            ops, where = _LANES[lane]
            bits = (lambda x: x.tobytes()) if lane == "array" else float.hex
            for t in points:
                L, s_c, g, D = _clamped(k, t, ops, where)
                assert bits(kernels.threshold(k, t, ops)) == bits(L), (lane, t)
                assert bits(kernels.gap(s_c, ops)) == bits(g), (lane, t)
                assert bits(kernels.limit_shape(t, ops)) == bits(D), (lane, t)


class TestThresholdClamps:
    @pytest.mark.parametrize("k", [3, 9, 88, 500, 1000])
    def test_lobe_block_skips_the_clamps(self, k):
        # a lobe block holds no point where s or q rounds to 1, so the
        # formula runs once on the whole block and the sentinel never
        theta = next(kernels.theta_blocks(PI / k, 2 * PI / k, kernels.GRID_BLOCK - 1))
        calls = []

        def select(c, a, b, *args):
            calls.append((a.__name__, b.__name__, c.size, int(c.sum())))
            return kernels.ARRAY_OPS.select(c, a, b, *args)

        ops = SimpleNamespace(**{**vars(kernels.ARRAY_OPS), "select": select})
        with np.errstate(all="raise"):
            kernels.threshold(k, theta, ops)
        assert calls[0] == ("_diverged", "formula", theta.size, 0)
        assert [size for _, _, size, _ in calls] == [theta.size, theta.size]
        _same_bits_both_lanes(k, theta)

    @pytest.mark.parametrize("k", [2, 3, 9, 88, 500])
    def test_grid_with_pi_and_singular_angles_keeps_the_clamped_values(self, k):
        theta = np.concatenate([
            kernels.theta_grid(0.0, PI, 64 * k),
            [(2 * j + 1) * PI / k for j in range(k)],
            kernels.theta_grid(PI / k, 2 * PI / k, 1000),
        ])
        assert theta.max() >= PI and PI in theta
        assert np.isneginf(_clamped(k, theta, *_LANES["array"])[0]).any()
        _same_bits_both_lanes(k, theta)


def _whole_grid_min_margin(m, k, lo, hi, n):
    # the whole-array form of grid_min_margin, the reference for its walk
    theta = kernels.theta_grid(lo, hi, n)
    margin = m - kernels.threshold_values(k, theta)
    i = int(np.argmin(margin))
    v = float(margin[i])
    if not math.isfinite(v):
        return float("inf"), float("nan")
    return v, float(theta[i])


def _whole_grid_max_limit_shape(lo, hi, n):
    # the whole-array form of grid_max_limit_shape, the reference for its walk
    z = kernels.theta_grid(lo, hi, n)
    vals = kernels.limit_shape_values(z)
    j = int(np.argmax(vals))
    v = float(vals[j])
    if not math.isfinite(v):
        return float("-inf"), float("nan")
    return v, float(z[j])


class TestGridWalks:
    """grid_min_margin and grid_max_limit_shape against the whole-grid
    reduction, bit for bit."""

    @staticmethod
    def _windows(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            lo = 10 ** rng.uniform(-12.0, math.log10(PI))
            hi = min(PI, lo + 10 ** rng.uniform(-9.0, 0.6))
            yield lo, hi, rng.randint(1, 20_000), rng

    def test_min_margin_on_random_windows(self):
        for lo, hi, n, rng in self._windows(35, 300):
            k = max(2, int(10 ** rng.uniform(0.3, 9.0)))
            m = rng.choice([0.0, 5.0, float(k**4 // 3), rng.uniform(-1e3, 1e40)])
            want = _whole_grid_min_margin(m, k, lo, hi, n)
            assert repr(kernels.grid_min_margin(m, k, lo, hi, n)) == repr(want), (m, k, lo, hi, n)

    def test_max_limit_shape_on_random_windows(self):
        for lo, hi, n, rng in self._windows(36, 300):
            lo, hi = rng.choice([(lo, hi), (lo + PI / 2 - 1e-3, hi + PI / 2)])
            want = _whole_grid_max_limit_shape(lo, hi, n)
            assert repr(kernels.grid_max_limit_shape(lo, hi, n)) == repr(want), (lo, hi, n)

    def test_ten_million_point_walks_stay_small(self):
        # the whole-grid forms peaked at about 550 and 620 MiB
        for scan, args in (
            (kernels.grid_min_margin, (1e6, 500, 1e-6, PI - 1e-6, 10**7)),
            (kernels.grid_max_limit_shape, (PI / 2 + 1e-6, PI - 1e-6, 10**7)),
        ):
            tracemalloc.start()
            try:
                scan(*args)
                peak_bytes = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak_bytes < 8 * 2**20, scan.__name__


class TestAgainstMpmath:
    @pytest.mark.parametrize("k", [9, 12, 97, 200, 1000])
    def test_both_lanes_within_rounding_bound(self, k):
        # both lanes share one formula, so they are checked against an
        # independent evaluation: random angles, lobe angles in
        # (pi/k, 2 pi/k), and angles around the series cutoff of the gap
        rng = random.Random(k)
        theta = [rng.uniform(1e-6, PI - 1e-6) for _ in range(100)]
        theta += [PI / k * (1.0 + rng.random()) for _ in range(100)]
        cut = kernels.GAP_SERIES_BELOW
        theta += [2.0 * math.asin(math.sqrt(cut * (1.0 + j * 1e-3))) for j in range(-20, 21)]
        grid = kernels.threshold_values(k, np.array(theta)).tolist()
        for t, g in zip(theta, grid):
            v = threshold_value(k, t)
            exact = mp_threshold(k, t)
            bound = threshold_rounding_bound(k, t, v, 0.0)
            assert float(abs(v - exact)) <= bound, (k, t)
            assert float(abs(g - exact)) <= bound, (k, t)

    def test_gap_within_2e14_relative(self):
        # both branches of the gap and the cutoff between them, at
        # log-uniform s; the subtraction alone loses 1.7e-12 at s = 1.2e-4
        rng = random.Random(2)
        s = [math.exp(rng.uniform(math.log(1e-6), math.log(0.5))) for _ in range(20_000)]
        cut = kernels.GAP_SERIES_BELOW
        s += [cut * (1.0 + j * 1e-6) for j in range(-20, 21)]
        grid = kernels.gap(np.array(s), kernels.ARRAY_OPS).tolist()
        worst = 0.0
        with mpmath.workdps(40):
            for x, g in zip(s, grid):
                exact = -mpmath.log1p(-mpmath.mpf(x)) - x
                v = denominator_gap(x)
                worst = max(worst, float(abs(v - exact) / exact), float(abs(g - exact) / exact))
        assert worst <= 2e-14


class TestLobeLemma:
    """The derivatives and signs of the kernels docstring's lemma, that L
    rises to one peak and then falls on the lobe, in mpmath at 40 digits."""

    @pytest.mark.parametrize("k", [2, 3, 9, 1000, 10**6])
    def test_derivatives_and_their_signs(self, k):
        sin, cos, sec = mpmath.sin, mpmath.cos, mpmath.sec
        with mpmath.workdps(40):
            def N(t):
                return k * k * sin(t / 2) ** 2 + mpmath.log(cos(k * t / 2) ** 2)

            def G(t):
                return -mpmath.log(cos(t / 2) ** 2) - sin(t / 2) ** 2

            for j in range(1, 12):
                t = mpmath.pi / k * (1 + mpmath.mpf(j) / 12)
                # (function, order, closed form, sign of the closed form)
                for f, order, want, sign in (
                    (N, 1, k * k / 2 * sin(t) - k * mpmath.tan(k * t / 2), 1),
                    (G, 1, sin(t / 2) ** 3 / cos(t / 2), 1),
                    (N, 2, k * k / 2 * (cos(t) - sec(k * t / 2) ** 2), -1),
                    (G, 2, (sec(t / 2) ** 2 - cos(t)) / 2, 1),
                ):
                    got = mpmath.diff(f, t, order)
                    assert sign * want > 0, (f.__name__, order, j)
                    assert abs(got - want) <= 1e-25 * abs(want), (f.__name__, order, j)

    @pytest.mark.parametrize("k", [2, 3, 9, 1000, 10**6])
    def test_curve_rises_then_falls_on_a_lobe_grid(self, k):
        values = [mp_threshold(k, t) for t in _grid(PI / k, 2 * PI / k, 2_000)]
        steps = [b - a for a, b in zip(values, values[1:])]
        top = next(i for i, d in enumerate(steps) if not d > 0)
        assert 0 < top < len(steps)
        assert all(d < 0 for d in steps[top:]), k


class TestEdgeContracts:
    def test_all_sentinel_window_is_empty(self):
        # the one grid point is theta = pi, where s rounds to 1 and L is
        # the -inf sentinel
        k, lo, hi = 2, PI / 2, PI
        v, t = kernels.grid_max_threshold(k, lo, hi, 1)
        assert v == float("-inf")
        assert math.isnan(t)
        v, t = kernels.grid_min_margin(100.0, k, lo, hi, 1)
        assert v == float("inf")
        assert math.isnan(t)
        assert count_nonneg_threshold(k, lo, hi, 1) == 0

    def test_all_nan_window_is_empty(self):
        # on (0, 1e-300] the gap underflows to 0 and so does the numerator,
        # so every L is NaN; a NaN empties the result, as np.argmin over
        # the whole grid would
        k, lo, hi, n = 9, 0.0, 1e-300, 5
        with np.errstate(all="ignore"):
            assert np.isnan(kernels.threshold_values(k, kernels.theta_grid(lo, hi, n))).all()
            assert repr(kernels.grid_min_margin(5.0, k, lo, hi, n)) == "(inf, nan)"

    def test_lobe_max_over_every_point(self):
        k, n = 9, 1_000
        lo, hi = PI / k, 2 * PI / k
        v, _ = kernels.grid_max_threshold(k, lo, hi, n)
        assert math.isfinite(v)
        assert v == pytest.approx(max(threshold_value(k, t) for t in _grid(lo, hi, n)), rel=1e-12)

    def test_right_closed_grid_includes_endpoint(self):
        # a one-point grid evaluates exactly at hi
        k = 9
        theta = 0.5
        v, t = kernels.grid_max_threshold(k, 0.4, theta, 1)
        assert t == theta
        assert v == pytest.approx(threshold_value(k, theta), rel=1e-12)
        assert kernels.theta_grid(0.4, theta, 7)[-1] == theta

    @pytest.mark.parametrize("k", [9, 16, 24])
    def test_count_zero_before_first_singularity(self, k):
        lo, hi = 1e-9, (PI / k) * (1.0 - 1e-9)
        assert count_nonneg_threshold(k, lo, hi, 20_000) == 0


def _doubles_next_to_odd_half_pi(j):
    # the two doubles on either side of (2j + 1) pi/2
    with mpmath.workprec(256):
        exact = (2 * j + 1) * mpmath.pi / 2
        z = float(exact)
        if z < exact:
            return z, math.nextafter(z, math.inf)
        return math.nextafter(z, -math.inf), z


class TestBranchesNoInputReaches:
    """The facts that let max_threshold and limit_shape go without a branch."""

    @pytest.mark.parametrize("n", [1000, 100_000])
    @pytest.mark.parametrize("k", [2, 3, _K_VERIFIED], ids=["2", "3", "K_VERIFIED"])
    def test_lobe_grid_max_is_finite_and_positive(self, k, n):
        # max_threshold refuses no grid: every lobe grid holds a point
        # where L is finite and positive
        v, theta = kernels.grid_max_threshold(k, PI / k, 2 * PI / k, n)
        assert math.isfinite(v) and v > 0.0
        assert PI / k < theta <= 2 * PI / k
        if k == 2:
            # the last grid point, theta = pi, is the -inf sentinel
            # (test_threshold_at_pi_alone_is_the_float_sentinel), so the
            # peak lies inside the lobe
            assert theta < PI

    @pytest.mark.parametrize("j", [0, 1, 2, 50, 500_000, 5 * 10**14])
    def test_limit_shape_is_finite_next_to_odd_multiples_of_half_pi(self, j):
        z = np.array(_doubles_next_to_odd_half_pi(j))
        with np.errstate(all="raise"):
            assert np.isfinite(kernels.limit_shape_values(z)).all()
        for t in z.tolist():
            assert math.isfinite(kernels.limit_shape(t, kernels.SCALAR_OPS))

    def test_no_double_has_a_zero_cosine(self):
        # the double nearest an odd multiple of pi/2 (Muller, Elementary
        # Functions) still has cos^2 z a positive normal float
        z = float(6381956970095103 * 2**797)
        assert math.cos(z) ** 2 > 0.0
        assert math.cos(z) ** 2 >= sys.float_info.min
