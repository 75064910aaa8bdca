"""A proven enclosure of max L(k, .) and the m(k) it decides, over mpmath.iv.

It evaluates L from its definition and imports nothing from unimodal_lab,
so it checks the package's float verdict from outside.
"""

from typing import NamedTuple

import mpmath
from mpmath import iv, mp

# seed brackets in z = k theta/2, each used only once iv proves that it
# holds the peak: around the limit shape's argmax z*, where the peak sits
# at every k but the least, then most of the lobe
_Z_STAR = mpmath.mpf("2.2206754817")
_SEEDS = (
    (_Z_STAR - mpmath.mpf("1e-3"), _Z_STAR + mpmath.mpf("1e-3")),
    (mpmath.mpf("1.6"), mpmath.mpf("3.1")),
)


class _Probe(NamedTuple):
    z: mpmath.mpf  # an exact point of the working precision
    n: mpmath.iv.mpf  # enclosures of N, G and L = N/G at z
    g: mpmath.iv.mpf
    y: mpmath.iv.mpf


def proven_peak(k: int, max_steps: int = 400):
    """(lo, hi, m): max L(k, .) over (0, pi) lies in [lo, hi], and m = ceil(max L).

    Returns None if no seed bracket is proven to hold the peak, if a
    comparison stays undecided, or past max_steps golden-section steps.

    In z = k theta/2 the lobe (pi/k, 2 pi/k] is (pi/2, pi], and
    L = N/G with N = k^2 s + ln cos^2 z, G = -ln(1 - s) - s and
    s = sin^2(z/k). As functions of theta:

    * N' = (k^2/2) sin theta - k tan z > 0, as tan z < 0 on (pi/2, pi);
      N'' = (k^2/2)(cos theta - sec^2 z) < 0.
    * G > 0, G' = sin^3(theta/2)/cos(theta/2) > 0 and
      G'' = (sec^2(theta/2) - cos theta)/2 > 0.

    Lemma: L rises strictly to one peak inside the lobe and falls
    strictly after it. Where N < 0, L' = (N'G - NG')/G^2 > 0. N rises
    from -inf at pi/k, so N >= 0 on a right part of the lobe; there
    P = N'G - NG' has P' = N''G - NG'' < 0, so L' changes sign at most
    once, from + to -. It does change sign: for k >= 3 the log term and
    its derivative vanish at 2 pi/k, so L'(2 pi/k) is the derivative of
    k^2 s/G(s), which falls with s (s/G(s) = 1/sum_{n>=2} s^(n-1)/n);
    for k = 2, L tends to 0 at pi while L(2, 3 pi/4) > 2.5, so L
    cannot rise all the way.

    Two bounds follow, and neither needs a derivative:

    * containment: for c < d in the lobe, L(c) < L(d) puts the peak
      right of c, and L(c) > L(d) puts it left of d;
    * upper bound: if the peak lies in [a, b] and N(b) >= 0, then
      max L <= N(b)/G(a), since N <= N(b) and G >= G(a) > 0 on [a, b]
      (and L < 0 where N < 0).

    The search is a golden section that moves an end only where iv
    decides the comparison. Each L value seen bounds max L from below.
    The peak has L > 0, so N > 0 there and at every b right of it.
    The lobe reduction (L < 0 before the lobe, L <= L(2 pi/k) after it)
    makes max over the lobe the max over (0, pi).
    """
    saved = iv.prec
    try:
        with mp.workprec(64 + 16 * k.bit_length()):
            iv.prec = mp.prec
            r = (mpmath.sqrt(5) - 1) / 2

            def probe(z):
                s = iv.sin(iv.mpf(z) / k) ** 2
                n, g = k * k * s + iv.log(iv.cos(iv.mpf(z)) ** 2), -iv.log(1 - s) - s
                return _Probe(z, n, g, n / g)

            for za, zb in _SEEDS:
                a, b = probe(za), probe(zb)
                c, d = probe(zb - r * (zb - za)), probe(za + r * (zb - za))
                if a.y.b < c.y.a and d.y.a > b.y.b:
                    break
            else:
                return None
            lo = max(c.y.a, d.y.a)
            for _ in range(max_steps):
                if c.y.b < d.y.a:
                    a, c = c, d
                    d = probe(a.z + r * (b.z - a.z))
                elif c.y.a > d.y.b:
                    b, d = d, c
                    c = probe(b.z - r * (b.z - a.z))
                else:
                    return None
                lo = max(lo, c.y.a, d.y.a)
                assert b.n.a >= 0 and a.g.a > 0
                hi = (b.n / a.g).b
                m = int(mpmath.ceil(hi))
                if lo > m - 1:
                    return mpmath.mpf(lo), mpmath.mpf(hi), m
            return None
    finally:
        iv.prec = saved
