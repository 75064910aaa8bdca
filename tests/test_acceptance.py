"""Acceptance gate: one check per shipped guarantee, one report line each.

Run with -s to see the ACCEPTANCE lines; each check prints its verdict
before asserting so the line also survives into captured output on
failure. The reflection-symmetry audit (10c) checks the curve's real
symmetry L(k, theta) = L(k, 2 pi - theta) against a rounding bound derived
from the expression, and keeps the refuted theta -> pi - theta identity
as a negative result: that gap must clear the same bound at every sample.
"""

import math
import random
import time

from oracles import beta_exact, product_identity_residual, quartic_floor_check, theta_grid
from rounding import U, count_nonneg_threshold, threshold_rounding_bound
from unimodal_lab import kernels
from unimodal_lab.certmax import certified_alpha, limit_shape
from unimodal_lab.envelope import (
    ThetaScan,
    max_threshold,
    membership_certificate,
    threshold_value,
)
from unimodal_lab.exactpoly import expand_family
from unimodal_lab.thresholds import (
    central_ratio_even,
    central_ratio_odd,
    inequality_one_probe,
    minimal_m,
    ratio_vs_coefficients,
    scan_thresholds,
    u_range,
)


def _report(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {status}{tail}")


def test_criterion_01_thresholds_match_square_law():
    t0 = time.perf_counter()
    bad = []
    for k in range(2, 41):
        row = scan_thresholds(k)
        if not (row.min_m_strong == row.min_m_unimodal == k * k - 3 and row.match):
            bad.append((k, row.min_m_strong, row.min_m_unimodal))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _report("1", ok, f"k in [2, 40], both modes, {elapsed:.2f}s")
    assert not bad, f"threshold mismatches: {bad}"
    assert elapsed < 60.0, f"scan took {elapsed:.2f}s, budget 60s"


def test_criterion_02_small_range_is_fast():
    t0 = time.perf_counter()
    got = [(k, minimal_m(k, "strong"), minimal_m(k, "unimodal")) for k in range(2, 8)]
    elapsed = time.perf_counter() - t0
    expect = [(k, k * k - 3, k * k - 3) for k in range(2, 8)]
    ok = got == expect and elapsed < 1.0
    _report("2", ok, f"k in [2, 7] in {elapsed * 1000:.1f}ms")
    assert got == expect
    assert elapsed < 1.0


def test_criterion_03_central_plateau_at_threshold():
    bad = []
    for k in range(2, 21):
        m = k * k - 3
        seq = expand_family(m, k)
        d = m + k
        mid = [seq[(d - 3) // 2], seq[(d - 1) // 2], seq[(d + 1) // 2], seq[(d + 3) // 2]]
        if len(set(mid)) != 1 or central_ratio_odd(m, k) != 1:
            bad.append(k)
    even_bad = [
        k
        for k in range(2, 21)
        if central_ratio_even(k * k - 2, k) != 1
    ]
    ok = not bad and not even_bad
    _report("3", ok, "four equal middle coefficients at m = k^2 - 3, k in [2, 20]")
    assert not bad, f"plateau broken at k = {bad}"
    assert not even_bad, f"even-degree ratio != 1 at k = {even_bad}"


def test_criterion_04_closed_ratio_is_exact():
    bad = []
    for k in range(2, 17):
        for m in range(k + 4, 401):
            closed, raw = ratio_vs_coefficients(m, k)
            if closed != raw:
                bad.append((m, k))
    ok = not bad
    _report("4", ok, "closed form == coefficient ratio, k in [2, 16], m in [k+4, 400]")
    assert not bad, f"closed-form ratio wrong at {bad[:5]}"


def test_criterion_05_beta_factorization():
    bad = []
    for k in range(3, 17):
        for u in range(k, (k * k + k - 5) // 2 + 1):
            if not beta_exact(k, u).factorization_ok:
                bad.append((k, u))
    ok = not bad
    _report("5", ok, "beta = B * A exactly, k in [3, 16]")
    assert not bad, f"factorization broken at {bad[:5]}"


def test_criterion_06_inequality_holds_with_honest_case_audit():
    failures = []
    case_holds = []
    for k in range(3, 41):
        for u in u_range(k):
            probe = inequality_one_probe(k, u)
            if not probe.holds:
                failures.append((k, u))
            case_holds.append(probe.case_bound_holds)
    ok = not failures and not any(case_holds)
    _report(
        "6",
        ok,
        f"inequality holds at all {len(case_holds)} probes; "
        "intermediate case bound fails everywhere and is reported, not assumed",
    )
    assert not failures, f"inequality fails at {failures[:5]}"
    # the two-case split's first bound is never the binding one; the audit
    # column must expose that instead of silently passing
    assert not any(case_holds)


def test_criterion_07_certified_constant():
    t0 = time.perf_counter()
    result = certified_alpha()
    elapsed = time.perf_counter() - t0
    enc = result.value_enclosure
    crit = result.crit_bracket
    crit_mid = 0.5 * (crit.lo + crit.hi)
    checks = {
        "width": enc.width <= 5e-4,
        "rounds_to_0.3229": round(0.5 * (enc.lo + enc.hi), 4) == 0.3229,
        "overlaps_band": enc.lo <= 0.32295 and enc.hi >= 0.32285,
        "crit_location": abs(crit_mid - 2.2214) < 0.01,
        "contains_value_at_crit": enc.lo <= limit_shape(crit_mid) <= enc.hi,
        "fast": elapsed < 1.0,
    }
    ok = all(checks.values())
    _report("7", ok, f"[{enc.lo:.12f}, {enc.hi:.12f}] in {elapsed * 1000:.0f}ms")
    assert ok, f"failed: {[k for k, v in checks.items() if not v]}"


def test_criterion_08_quartic_scaling_enclosure():
    t0 = time.perf_counter()
    enc = certified_alpha().value_enclosure
    bad = []
    for k in range(9, 25):
        peak = max_threshold(ThetaScan(k))
        lo = enc.lo / (1.0 + 8.0 / (k * k)) - 1e-9
        hi = enc.hi + 1e-9
        if not lo <= peak.ratio_k4 <= hi:
            bad.append((k, peak.ratio_k4, lo, hi))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30.0
    _report("8", ok, f"max/k^4 inside scaling bounds for k in [9, 24], {elapsed:.2f}s")
    assert not bad, f"scaling enclosure missed at {bad}"
    assert elapsed < 30.0


def test_criterion_09_membership_flips_at_min_m():
    bad = []
    for k in (9, 12, 16):
        peak = max_threshold(ThetaScan(k))
        at = membership_certificate(peak.min_m, peak)
        below = membership_certificate(peak.min_m - 1, peak)
        if not (at.member and not below.member and not peak.near_integer):
            bad.append((k, peak.min_m, at.member, below.member, peak.near_integer))
    ok = not bad
    _report("9", ok, "member at m(k), non-member at m(k) - 1, k in {9, 12, 16}")
    assert not bad, f"membership flip broken: {bad}"


def test_criterion_10a_product_identity():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(1000):
        f = [rng.uniform(-0.2, 0.2) for _ in range(rng.randint(2, 6))]
        g = [rng.uniform(-0.2, 0.2) for _ in range(rng.randint(2, 6))]
        f[0] += 1.0 - sum(f)
        g[0] += 1.0 - sum(g)
        worst = max(worst, product_identity_residual(f, g, rng.uniform(0.0, math.pi)))
    ok = worst <= 1e-12
    _report("10a", ok, f"worst relative residual {worst:.3e} over 1000 seeded triples")
    assert worst <= 1e-12


def test_criterion_10b_quartic_floor():
    hi = 1.0 / (2.0 * math.sqrt(2.0))
    n = 10_000
    worst = float("inf")
    worst_psi = float("nan")
    for i in range(1, n + 1):
        psi = hi * (i / n)
        _, margin = quartic_floor_check(psi)
        if margin < worst:
            worst, worst_psi = margin, psi
    ok = worst >= 0.0
    _report("10b", ok, f"min margin {worst:.3e} at psi={worst_psi:.6g}")
    assert worst >= 0.0, f"floor fails at psi={worst_psi}: margin={worst}"


def test_criterion_10c_reflection_symmetry_audit():
    # f has real coefficients, so |f(conj z)| = |f(z)|; s = sin^2(theta/2)
    # and sin^2(k theta/2) are unchanged by theta -> 2 pi - theta, hence
    # L(k, theta) = L(k, 2 pi - theta) and the max over (0, pi) decides
    # membership. That identity must hold to within the rounding bound.
    # There is no theta -> pi - theta symmetry (L(k, 0+) = -(k^4 + 2k^2)/3,
    # while L(k, pi-) tends to 0 for even k and to -1 for odd k); the audit
    # keeps that negative result by requiring the pi - theta gap to clear
    # the same bound at every sample.
    rng = random.Random(3)
    worst_conj = 0.0
    least_sep = float("inf")
    n_conj_bad = 0
    n_sep_bad = 0
    n_tot = 0
    for k in (9, 12):
        guard = 1e-6
        for _ in range(200):
            theta = rng.uniform(guard, math.pi - guard)
            a = threshold_value(k, theta)
            b = threshold_value(k, 2.0 * math.pi - theta)
            if not (math.isfinite(a) and math.isfinite(b)):
                continue
            n_tot += 1
            # 2 pi - theta is off by up to 4 pi u
            bound = threshold_rounding_bound(k, theta, a, 4.0 * math.pi * U)
            conj = abs(a - b) / bound
            sep = abs(a - threshold_value(k, math.pi - theta)) / bound
            worst_conj = max(worst_conj, conj)
            least_sep = min(least_sep, sep)
            if conj > 1.0:
                n_conj_bad += 1
            if not sep > 1.0:
                n_sep_bad += 1
    ok = n_tot > 0 and n_conj_bad == 0 and n_sep_bad == 0
    _report(
        "10c",
        ok,
        f"{n_tot} sampled angles: L(k, 2pi - theta) gap <= {worst_conj:.3g}x the "
        f"rounding bound, {n_conj_bad} over; L(k, pi - theta) gap >= "
        f"{least_sep:.3g}x it, {n_sep_bad} within",
    )
    assert n_tot > 0, "no sampled angle had a finite threshold value"
    assert n_conj_bad == 0, (
        "L(k, theta) = L(k, 2 pi - theta) fails beyond rounding at "
        f"{n_conj_bad}/{n_tot} samples (worst gap {worst_conj:.3g}x the bound)"
    )
    assert n_sep_bad == 0, (
        "L(k, theta) and L(k, pi - theta) agree to within rounding at "
        f"{n_sep_bad}/{n_tot} samples (least gap {least_sep:.3g}x the bound); "
        "the curve has no theta -> pi - theta symmetry, so this should not happen"
    )


def _grid_max(k, lo, hi, n):
    # the first largest L over the whole right-closed grid, and its angle
    theta = theta_grid(lo, hi, n)
    values = kernels.threshold_values(k, theta)
    i = int(values.argmax())
    return float(values[i]), float(theta[i])


def test_criterion_10d_curve_negative_before_first_singularity():
    bad = []
    for k in (9, 16, 24):
        lo = 1e-9
        hi = (math.pi / k) * (1.0 - 1e-9)
        count = count_nonneg_threshold(k, lo, hi, 100_000)
        peak, _ = _grid_max(k, math.pi / k, 2.0 * math.pi / k, 20_000)
        if count != 0 or not peak > 0.0:
            bad.append((k, count, peak))
    ok = not bad
    _report("10d", ok, "curve < 0 on (0, pi/k), > 0 on the reduced interval")
    assert not bad, f"sign structure broken: {bad}"


def test_criterion_10e_first_interval_dominates():
    bad = []
    for k in (10, 16, 24):
        m1, _ = _grid_max(k, math.pi / k, 2.0 * math.pi / k, 20_000)
        slack = 1e-9 * max(1.0, abs(m1))
        for t in range(2, k // 2 + 1):
            lo = (2 * t - 1) * math.pi / k
            hi = min((2 * t + 1) * math.pi / k, math.pi - 1e-6)
            if lo >= hi:
                continue
            mt, theta_t = _grid_max(k, lo, hi, 20_000)
            if mt > m1 + slack:
                bad.append((k, t, mt, m1, theta_t))
    ok = not bad
    _report("10e", ok, "later lobes never beat the first, k in {10, 16, 24}")
    assert not bad, f"domination fails: {bad}"
