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

grid_max_threshold is a branch-and-bound over cells of
max(GRID_CELL, ceil(n / GRID_BLOCK)) consecutive grid indices, so one
array of at most GRID_BLOCK bounds covers any grid. It bounds every
cell from above (the lemma below holds for any cell), seeds a running
best from the cell with the largest finite bound, then walks, in index
order and in blocks of whole cells, every cell whose bound is not
strictly below that best, always including the cells whose bound is
not finite. A later point replaces the running (value, theta) only if
strictly larger. A skipped cell holds only values below a value the
walk finds, so the result, NaN and -inf sentinels and ties on the first
index included, is bit for bit that of the whole-grid argmax, whatever
the cell size. A block is at most GRID_BLOCK points until n =
GRID_BLOCK^2 (about 2.7e8), and one cell beyond: at k = 3 the
tracemalloc peak is 1.9 MiB at n = 10^8 and 5.4 MiB at n = 10^9, whose
cells are 61,036 points. grid_min_margin and grid_max_limit_shape make
the same walk over every block of theta_blocks, with no bounds: at
n = 10^7 each peaks at about 1.4 MiB. Neither has a caller in src/:
perfbench/tracer.py wraps both by name. ROADMAP item 4 deletes them,
after item 23 frees the tracer's pins.

Cell bound. The grid expression is monotone in i, so the points of a
cell lie in [a, b], between the grid angles at its two ends. On
[a, b] inside [0, pi], s = sin^2(theta/2) and gap(s) increase, and
ln(1 - q) = ln cos^2(k theta/2) is at most 0; if [a, b] holds no
multiple of 2 pi/k it lies between two of them, where cos^2(k theta/2)
falls to 0 at the odd multiple of pi/k and rises again, so ln(1 - q)
is at most its larger end value. Hence, with N+ = k^2 s(b) plus that
maximum, L <= N+ / gap(s(a)), or N+ / gap(s(b)) when N+ < 0.

Rounding. The bound must cover the computed values. Let u = 2^-53,
assume NumPy's sin, log and log1p are within 4 ulp (relative 8u), and
let r = _CELL_SLACK = 2^-40 = 8192 u. At a grid point theta:
  * s^ = fl(sin(theta/2)^2) is within 17.01 u of s, relative;
  * 1 - q^ is within (17.01 + k theta/2) u of cos^2(k theta/2), absolute
    (q^ as s^, and fl(k theta/2) moves the argument of sin^2, whose
    slope is at most 1, by at most u k theta/2);
  * the computed gap of x is within 1810 u of gap(x), relative: the
    series branch has positive terms, at most 24 u including the
    dropped tail; the log branch errs by at most 9 u (gap + x) + u gap,
    and x <= 200 gap(x) for x >= 1e-2;
  * the computed log1p(-q^) is at most (1 - 8u) ln(1 - q^) <= 0;
  * the product k^2 s^, its sum with the log term and the final
    quotient add u each, relative.
The bound therefore widens each piece by r: s_lo = min end s^ times
(1 - r) and s_hi = max end s^ times (1 + r) enclose every s^ in the
cell; the computed gap at s_lo times (1 - r), and at s_hi times
(1 + r), enclose every computed gap; the log piece is 0 when [a, b] may
hold a multiple of 2 pi/k (tested with r of room) and otherwise
(1 - r) log(min(1, max end (1 - q^) + r (1 + k b/2))); N+ gains
r (k^2 s_hi + |log piece|), and the quotient U gains r |U|. Each
widening exceeds the error it covers by at least a factor 2 (the
largest, 2 x 1810 u against r), which leaves room for the float
operations of the bound itself, each of relative error u. The
computed L is -inf where s^ or q^ rounds to 1, below any bound. Below
s = 1e-150 (theta < 2e-75) the gap nears the subnormal range, where
relative errors are unbounded, so those cells get no finite bound.
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


def _sines(k, theta, ops):
    """(s, q) = (sin^2(theta/2), sin^2(k theta/2)), the two pieces of L."""
    half = 0.5 * theta
    s = ops.sin(half)
    sk = ops.sin(k * half)
    return s * s, sk * sk


def _diverged(*args):
    # the sentinel of a curve at a point where it diverges
    return -math.inf


def threshold(k, theta, ops):
    """L(k, theta) = (k^2 s + ln(1 - q)) / gap(s); -inf where s or q rounds to 1.

    s = sin^2(theta/2) and q = sin^2(k theta/2).
    """
    s, q = _sines(k, theta, ops)

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
GRID_CELL = 128


def _cell_size(n):
    # at most GRID_BLOCK cells cover the n grid points
    return max(GRID_CELL, -(-n // GRID_BLOCK))


def _cell_blocks(lo, width, n, size, cells):
    # grid angles of the ascending cells, cell c holding the indices
    # c size + 1 .. min(c size + size, n), max(1, GRID_BLOCK // size)
    # cells to a block
    import numpy as np

    offsets = np.arange(1, size + 1, dtype=np.float64)
    per = max(1, GRID_BLOCK // size)
    for start in range(0, len(cells), per):
        i = (cells[start : start + per, None] * size + offsets).ravel()
        if i[-1] > n:
            i = i[i <= n]
        yield _grid_angles(lo, width, i, n)


def theta_blocks(lo: float, hi: float, n: int) -> Iterator[np.ndarray]:
    """theta_grid(lo, hi, n), bit for bit, in blocks of whole grid cells:
    at most GRID_BLOCK points each up to n = GRID_BLOCK^2, one cell beyond."""
    import numpy as np

    size = _cell_size(n)
    return _cell_blocks(lo, hi - lo, n, size, np.arange(-(-n // size)))


def threshold_values(k: int, theta: np.ndarray) -> np.ndarray:
    """L(k, theta) elementwise; -inf where the curve diverges."""
    return threshold(k, theta, _array_ops())


def limit_shape_values(z: np.ndarray) -> np.ndarray:
    """D(z) elementwise."""
    return limit_shape(z, _array_ops())


# relative slack of the cell bounds, 2^-40 = 8192 u (u = 2^-53), and the
# least s they accept: above it gap(s) > s^2/2 stays a normal float
_CELL_SLACK = 2.0**-40
_S_NORMAL = 1e-150


def _cell_bounds(k, ends):
    """Upper bounds on threshold_values over the grid cells between ends.

    Cell c lies between ends[c] and ends[c + 1]; see the module docstring
    for the proof. A cell gets +inf, so that it is always walked, when
    its ends leave [0, pi] or are NaN, when the widened s leaves
    [_S_NORMAL, 1), or when the gap bound is not positive.
    """
    import numpy as np

    ops = _array_ops()
    r = _CELL_SLACK
    s, q = _sines(k, ends, ops)
    a = np.minimum(ends[:-1], ends[1:])
    b = np.maximum(ends[:-1], ends[1:])
    s_lo = np.minimum(s[:-1], s[1:]) * (1.0 - r)
    s_hi = np.maximum(s[:-1], s[1:]) * (1.0 + r)
    ok = (a >= 0.0) & (b <= math.pi) & (s_lo >= _S_NORMAL) & (s_hi < 1.0)
    s_hi = np.where(ok, s_hi, 0.5)
    # ln(1 - q) is at most 0, and at most its larger end value unless
    # [a, b] may hold a multiple of 2 pi/k
    w = k / (2.0 * math.pi)
    holds = np.floor(b * w * (1.0 + r)) >= a * w * (1.0 - r)
    c = 1.0 - q
    c = np.maximum(c[:-1], c[1:]) + r * (1.0 + 0.5 * k * b)
    log_top = np.where(holds, 0.0, np.log(np.minimum(c, 1.0)) * (1.0 - r))
    ks = (k * k) * s_hi
    num = (ks + log_top) + r * (ks - log_top)
    g = np.where(num >= 0.0, gap(s_lo, ops) * (1.0 - r), gap(s_hi, ops) * (1.0 + r))
    ok &= g > 0.0
    bound = num / np.where(ok, g, 1.0)
    return np.where(ok, bound + r * np.abs(bound), np.inf)


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


def grid_max_threshold(k: int, lo: float, hi: float, n: int) -> tuple[float, float]:
    """Max of the threshold curve over a right-closed grid; (-inf, nan) if empty.

    A NaN value empties the result, as it does in np.argmax over the whole
    grid. Only the cells whose bound does not fall below the best value
    of the most promising cell are evaluated (module docstring).
    """
    import numpy as np

    width = hi - lo
    size = _cell_size(n)
    # cell c lies between the grid angles at c size and min(c size + size, n)
    bound = _cell_bounds(
        k, _grid_angles(lo, width, np.minimum(np.arange(-(-n // size) + 1) * size, n), n)
    )
    finite = np.isfinite(bound)
    floor = -math.inf
    values = functools.partial(threshold_values, k)
    if finite.any():
        seed = int(np.argmax(np.where(finite, bound, -np.inf)))
        floor = _walk(values, _cell_blocks(lo, width, n, size, np.array([seed])))[0]
    # a NaN bound is not below floor, so its cell is walked
    cells = np.flatnonzero(~(bound < floor))
    return _walk(values, _cell_blocks(lo, width, n, size, cells))


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
