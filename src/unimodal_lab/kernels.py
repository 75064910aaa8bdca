"""The threshold curve, the denominator gap and the limit shape, and the
NumPy grid kernels that scan them.

Each formula is written once, as a function of its argument and an ops
namespace that supplies sin, cos, log, log1p and select: SCALAR_OPS
(libm through math) for the scalar evaluators
envelope.threshold_value, envelope.denominator_gap and
certmax.limit_shape, which drive the golden-section and bisection
refinements, and ARRAY_OPS (NumPy) for the grids. The lanes stay apart
because NumPy's log1p and libm's differ in the last bit on some inputs,
and the CLI prints scalar results to 17 digits. NumPy is imported on
the first grid call, not with this module, so the commands that scan
no grid start without it; ARRAY_OPS is built then, once, and every
access returns that one namespace.

select(c, a, b, *args) is the one branch: a(*args) where c holds and
b(*args) where it does not. The scalar lane calls one branch. The array
lane calls one branch on the whole arrays when c is uniform, filling an
all-true result to c's shape, and otherwise each branch on the elements
of args it keeps, so no branch ever sees a point it would discard: the
formulas need no clamps before a log and raise no floating-point
warning.

Grid semantics: right-closed grids theta_i = lo + (hi - lo) * (i / n)
for i = 1..n, -inf sentinels where the curve diverges, and ties broken
toward the first grid index. No point is masked: next to pi/k, the
singular angle at the left end of the lobe, the computed L is negative
or the -inf sentinel, so it never holds the lobe peak
(envelope.max_threshold proves it).

Lemma: L is unimodal on the lobe (pi/k, 2 pi/k] at every k >= 2. Write
L = N/G with N = k^2 s + ln cos^2(k theta/2), G = gap(s) and
s = sin^2(theta/2). Inside the lobe:
  * N' = (k^2/2) sin theta - k tan(k theta/2) > 0, since the tangent is
    negative for k theta/2 in (pi/2, pi), and
    N'' = (k^2/2)(cos theta - sec^2(k theta/2)) < 0;
  * G > 0, G' = sin^3(theta/2)/cos(theta/2) > 0 and
    G'' = (sec^2(theta/2) - cos theta)/2 > 0.
Where N < 0, L' = (N'G - NG')/G^2 > 0. N rises from -inf at pi/k, so
N >= 0 on a right part of the lobe, and there P = N'G - NG' has
P' = N''G - NG'' < 0, so P, and with it L', changes sign at most once,
from + to -. Hence L rises strictly to its peak and falls strictly after
it (a fall that may be empty), and so do its exact values on any grid
inside the lobe: before the first largest index p they rise strictly,
and from p on they do not rise.

grid_max_threshold finds the first largest value of a lobe grid by a
zoom over grid indices. Each round evaluates the indices a, a + h,
a + 2h, ... below b, and b itself, of a window [a, b] that starts as
[1, n], with h the least power of two at least (b - a)/_ZOOM, and keeps
the window between the neighbours of the first best sample; a last
window of at most _ZOOM + 1 indices is evaluated whole, and the result
is its first largest value. On exact values the zoom is exact: if p lay
at or left of the best sample's left neighbour, both would lie where
the values do not rise, so the neighbour would be at least as large; if
p lay right of its right neighbour, both would lie where the values
rise strictly, so the neighbour would be larger. Either contradicts a
first best sample, so every window holds p, and the last one's first
largest index is p. On computed values, whose last bits need not rise
and fall with L, that the result equals the whole-grid argmax bit for
bit is checked, not proven: CI compares the two at every k <= 1000 on
10^3 and 10^5 points and at every 10th k from 100 on 10^6 points.
Each h divides the one before, and a round's best index is an end of
the next window or h past its left end, so the next round samples it
too: the result is at least every value the zoom evaluates. A round
evaluates at most _ZOOM + 1 points and shrinks the window about
_ZOOM/2-fold: n = 10^9 takes 6 evaluations of at most 65 points.

grid_min_margin and grid_max_limit_shape walk every block of
theta_blocks, GRID_BLOCK consecutive grid indices at a time: at
n = 10^7 each peaks at about 1.1 MiB. Neither has a caller in src/:
perfbench/tracer.py wraps both by name. ROADMAP item 4 deletes them,
after item 23 frees the tracer's pins.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    import numpy as np


def _array_select(c, a, b, *args):
    import numpy as np

    if not c.any():
        return b(*args)
    if c.all():
        return np.full(c.shape, a(*args))
    out = np.empty(c.shape)
    out[c] = a(*(x[c] for x in args))
    c = ~c
    out[c] = b(*(x[c] for x in args))
    return out


SCALAR_OPS = SimpleNamespace(
    sin=math.sin,
    cos=math.cos,
    log=math.log,
    log1p=math.log1p,
    select=lambda c, a, b, *args: a(*args) if c else b(*args),
)


@functools.cache
def _array_ops():
    # the array lane, built once, on the first grid call
    import numpy as np

    return SimpleNamespace(
        sin=np.sin,
        cos=np.cos,
        log=np.log,
        log1p=np.log1p,
        select=_array_select,
    )


def __getattr__(name):
    # ARRAY_OPS is served on access (PEP 562), so importing this module
    # does not import NumPy
    if name == "ARRAY_OPS":
        return _array_ops()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


GAP_SERIES_BELOW = 1e-2


def gap(s, ops):
    """-log1p(-s) - s for 0 <= s < 1, via its series for s < GAP_SERIES_BELOW.

    The subtraction loses about u/s relative to cancellation (<= 2e-14
    above the cutoff), so below it the series s^2 (1/2 + s/3 + ... + s^7/9)
    is used instead (first dropped term < 2e-17 relative), by Horner in
    place.
    """

    def series(s):
        acc = s / 9.0
        for n in range(8, 1, -1):
            acc += 1.0 / n
            acc *= s
        acc *= s
        return acc

    return ops.select(s < GAP_SERIES_BELOW, series, lambda s: -ops.log1p(-s) - s, s)


def _diverged(*args):
    # the sentinel of a curve at a point where it diverges
    return -math.inf


def threshold(k, theta, ops):
    """L(k, theta) = (k^2 s + ln(1 - q)) / gap(s); -inf where s or q rounds to 1.

    s = sin^2(theta/2) and q = sin^2(k theta/2).
    """
    half = 0.5 * theta
    s = ops.sin(half)
    sk = ops.sin(k * half)
    s, q = s * s, sk * sk

    def formula(s, q):
        return ((k * k) * s + ops.log1p(-q)) / gap(s, ops)

    return ops.select((s >= 1.0) | (q >= 1.0), _diverged, formula, s, q)


def limit_shape(z, ops):
    """D(z) = 2/z^2 + 2 ln(cos^2 z)/z^4.

    No double z has cos z = 0: the one nearest an odd multiple of pi/2,
    6381956970095103 * 2^797 (Muller, Elementary Functions), has
    |cos z| of about 4.69e-19, so cos^2 z is a positive normal float and
    the log is finite at every double.
    """
    c = ops.cos(z)
    z2 = z * z
    return 2.0 / z2 + 2.0 * ops.log(c * c) / (z2 * z2)


def backend() -> str:
    """Name of the grid lane, reported in CLI output: always "pure"."""
    return "pure"


def _grid_angles(lo, width, i, n):
    # the grid expression, written once so that every grid angle has the same bits
    return lo + width * (i / n)


def theta_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """Right-closed grid lo + (hi - lo) * (i / n) for i = 1..n."""
    import numpy as np

    return _grid_angles(lo, hi - lo, np.arange(1, n + 1, dtype=np.float64), n)


GRID_BLOCK = 16_384


def theta_blocks(lo: float, hi: float, n: int) -> Iterator[np.ndarray]:
    """theta_grid(lo, hi, n), bit for bit, in blocks of at most GRID_BLOCK points."""
    import numpy as np

    for start in range(1, n + 1, GRID_BLOCK):
        i = np.arange(start, min(start + GRID_BLOCK, n + 1), dtype=np.float64)
        yield _grid_angles(lo, hi - lo, i, n)


def threshold_values(k: int, theta: np.ndarray) -> np.ndarray:
    """L(k, theta) elementwise; -inf where the curve diverges."""
    return threshold(k, theta, _array_ops())


def limit_shape_values(z: np.ndarray) -> np.ndarray:
    """D(z) elementwise."""
    return limit_shape(z, _array_ops())


def _walk(values, blocks):
    # the first largest values(theta) over the blocks of angles and its
    # theta: a later point replaces the running best only if strictly
    # larger; (-inf, nan) if that value is not finite or any value is NaN
    import numpy as np

    empty = (-math.inf, math.nan)
    best = empty
    for theta in blocks:
        vals = values(theta)
        j = int(np.argmax(vals))
        v = float(vals[j])
        if math.isnan(v):
            return empty
        if v > best[0]:
            best = (v, float(theta[j]))
    return best if math.isfinite(best[0]) else empty


# the most samples a zoom round takes is _ZOOM + 1
_ZOOM = 64


def grid_max_threshold(k: int, lo: float, hi: float, n: int) -> tuple[float, float]:
    """Max of the threshold curve over a right-closed grid inside the lobe
    [pi/k, 2 pi/k]; (-inf, nan) if empty.

    The zoom of the module docstring, whose exactness rests on the
    lemma there, so a window outside the lobe raises ValueError, as
    does n < 1. A NaN value in the last window empties the result.
    """
    import numpy as np

    if n < 1 or not all(math.pi / k <= x <= 2.0 * math.pi / k for x in (lo, hi)):
        raise ValueError(f"need n >= 1 points of a window inside [pi/k, 2 pi/k], got {n}, {lo}, {hi}")
    width = hi - lo
    a, b = 1, n
    while b - a > _ZOOM:
        # the least power of two h with _ZOOM h >= b - a
        h = 1 << (-(-(b - a) // _ZOOM) - 1).bit_length()
        i = np.append(np.arange(a, b, h), b)
        j = int(np.argmax(threshold_values(k, _grid_angles(lo, width, i, n))))
        a, b = int(i[max(j - 1, 0)]), int(i[min(j + 1, i.size - 1)])
    last = _grid_angles(lo, width, np.arange(a, b + 1), n)
    return _walk(functools.partial(threshold_values, k), [last])


def grid_min_margin(m: float, k: int, lo: float, hi: float, n: int) -> tuple[float, float]:
    """Min of m - threshold over a right-closed grid; (+inf, nan) if empty.

    The walk takes the first largest -(m - L), an exact negation, so the
    result is the first smallest margin.
    """
    v, theta = _walk(lambda theta: -(m - threshold_values(k, theta)), theta_blocks(lo, hi, n))
    return -v, theta


def grid_max_limit_shape(lo: float, hi: float, n: int) -> tuple[float, float]:
    """Max of the limit shape over a right-closed grid; (-inf, nan) if empty."""
    return _walk(limit_shape_values, theta_blocks(lo, hi, n))
