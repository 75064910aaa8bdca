"""In-process traced runs: timing wrappers around the package's public functions.

The package imports several functions by name (``cli`` takes
``unimodal_report`` from ``exactpoly``, ``thresholds`` takes the predicates),
so a wrapper replaces every module attribute that is bound to the original
function object, and ``Tracer.installed`` puts every one back on exit.
Worker threads of the CLI's ``ThreadPoolExecutor`` inherit the span that
submitted them as their parent, so self time and row overlap stay right
under the pool. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

from jobs import Job

PKG = "unimodal_lab"

# grid_max_threshold's full-interval cross-check starts at theta = 1e-6; the
# lobe scan starts at pi/k >= pi/1000
_CROSS_CHECK_LO = 1e-5


def _arg(args: tuple, kwargs: dict, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _seq_len(args, kwargs, result) -> dict:
    return {"coeffs": len(_arg(args, kwargs, 0, "seq"))}


def _grid_points(i: int) -> Callable:
    def attrs(args, kwargs, result) -> dict:
        return {"points": _arg(args, kwargs, i, "n")}
    return attrs


def _lobe_or_cross(args, kwargs, result) -> dict:
    lo = _arg(args, kwargs, 1, "lo")
    return {"points": _arg(args, kwargs, 3, "n"), "part": "cross_check" if lo < _CROSS_CHECK_LO else "lobe"}


def _evaluations(args, kwargs, result) -> dict:
    return {"evaluations": result.evaluations if result is not None else 0}


# (module, function, attrs(args, kwargs, result) or None)
SPANNED = [
    ("cli", "main", None),
    ("thresholds", "scan_thresholds", None),
    ("thresholds", "minimal_m", None),
    ("thresholds", "inequality_one_probe", None),
    ("thresholds", "generic_min_N", None),
    ("exactpoly", "expand_family", None),
    ("exactpoly", "unimodal_report", None),
    ("exactpoly", "is_strongly_unimodal", _seq_len),
    ("exactpoly", "is_unimodal", None),
    ("exactpoly", "poly_mul", None),
    ("envelope", "max_threshold", None),
    ("envelope", "membership_certificate", None),
    ("envelope", "sandwich_check", None),
    ("kernels", "grid_max_threshold", _lobe_or_cross),
    ("kernels", "grid_min_margin", _grid_points(4)),
    ("kernels", "grid_max_limit_shape", _grid_points(2)),
    ("certmax", "certified_alpha", _evaluations),
]
# scalar functions called thousands of times per job: counted, not spanned,
# so their time stays in the caller's self time
COUNTED = [("envelope", "threshold_value")]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[int]
    attrs: Optional[dict]


class Tracer:
    """Collects spans and call counts from wrapped package functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _spanned(self, name: str, fn: Callable, attrs: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs else None
                self.spans.append(Span(sid, name, t0, t1, parent, self.job, extra))
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _pool_class(self, base: type) -> type:
        tracer = self

        class SpanCarryingPool(base):
            """Runs each task under the span that submitted it."""

            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def run(*a, **kw):
                    worker_stack = tracer._stack()
                    worker_stack.append(parent)
                    try:
                        return fn(*a, **kw)
                    finally:
                        worker_stack.pop()

                return super().submit(run, *args, **kwargs)

        return SpanCarryingPool

    def _replace(self, original: object, replacement: object) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != PKG and not modname.startswith(PKG + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions in every module that binds them; restore on exit."""
        try:
            for modname, fname, attrs in SPANNED:
                fn = getattr(sys.modules[f"{PKG}.{modname}"], fname)
                self._replace(fn, self._spanned(f"{modname}.{fname}", fn, attrs))
            for modname, fname in COUNTED:
                fn = getattr(sys.modules[f"{PKG}.{modname}"], fname)
                self._replace(fn, self._counted(f"{modname}.{fname}", fn))
            cli = sys.modules[f"{PKG}.cli"]
            self._patched.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
            cli.ThreadPoolExecutor = self._pool_class(cli.ThreadPoolExecutor)
            yield self
        finally:
            for mod, attr, original in reversed(self._patched):
                setattr(mod, attr, original)
            self._patched.clear()


def run_inprocess(jobs: list[Job], infiles: dict[int, str], tracer: Optional[Tracer] = None):
    """Run each job through ``cli.main(argv)``; returns ([(rc, stdout)], wall seconds)."""
    cli = sys.modules[f"{PKG}.cli"]
    results = []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(job.argv(infiles.get(i)))
            except SystemExit as e:  # argparse exits for --version and usage errors
                rc = e.code if isinstance(e.code, int) else int(e.code is not None)
        results.append((rc, out.getvalue()))
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.job = None
    return results, wall


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


MODULES = ("cli", "thresholds", "exactpoly", "envelope", "kernels", "certmax")


def layer_metrics(tracer: Tracer, jobs: list[Job], import_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass over ``jobs``.

    ``import_s`` is the package import time one process pays; the ``import``
    self-time share charges it once per job, as the untraced run does.
    """
    spans = tracer.spans
    self_t = _self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    by_id = {s.id: s for s in spans}
    kind = lambda s: jobs[s.job].kind  # noqa: E731

    def calls(name: str) -> int:
        return len(by_name[name])

    def incl(name: str, pick=lambda s: True) -> float:
        return sum(s.end - s.start for s in by_name[name] if pick(s))

    def self_s(name: str) -> float:
        return sum(self_t[s.id] for s in by_name[name])

    def attr_sum(name: str, key: str, pick=lambda s: True) -> int:
        return sum(s.attrs[key] for s in by_name[name] if pick(s))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_s"] = self_s("cli.main")
    scan_jobs = ("scan-theorem1", "scan-eclass")
    rows = incl("thresholds.scan_thresholds", lambda s: kind(s) == "scan-theorem1") + incl(
        "envelope.max_threshold",
        lambda s: kind(s) == "scan-eclass" and by_id[s.parent].name == "cli.main",
    )
    m["cli.row_overlap"] = ratio(rows, incl("cli.main", lambda s: kind(s) in scan_jobs))

    m["thresholds.scan_thresholds.calls"] = calls("thresholds.scan_thresholds")
    m["thresholds.minimal_m.calls"] = calls("thresholds.minimal_m")
    m["thresholds.minimal_m.self_s"] = self_s("thresholds.minimal_m")
    under_minimal_m = sum(
        1
        for name in ("exactpoly.is_strongly_unimodal", "exactpoly.is_unimodal")
        for s in by_name[name]
        if s.parent is not None and by_id[s.parent].name == "thresholds.minimal_m"
    )
    m["thresholds.predicate_calls_per_minimal_m"] = ratio(under_minimal_m, calls("thresholds.minimal_m"))
    for name in ("thresholds.inequality_one_probe", "thresholds.generic_min_N"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = incl(name)

    for name in ("exactpoly.is_strongly_unimodal", "exactpoly.is_unimodal", "exactpoly.poly_mul",
                 "exactpoly.expand_family"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = incl(name)
    m["exactpoly.is_strongly_unimodal.coeffs"] = attr_sum("exactpoly.is_strongly_unimodal", "coeffs")
    m["exactpoly.unimodal_report.s"] = incl("exactpoly.unimodal_report")

    n_eclass = sum(1 for j in jobs if j.kind == "eclass")
    m["envelope.max_threshold.calls"] = calls("envelope.max_threshold")
    m["envelope.max_threshold.self_s"] = self_s("envelope.max_threshold")
    m["envelope.max_threshold.calls_per_eclass"] = ratio(
        sum(1 for s in by_name["envelope.max_threshold"] if kind(s) == "eclass"), n_eclass
    )
    m["envelope.threshold_value.calls"] = tracer.counts["envelope.threshold_value"]
    m["envelope.membership_certificate.calls"] = calls("envelope.membership_certificate")
    m["envelope.membership_certificate.self_s"] = self_s("envelope.membership_certificate")
    m["envelope.sandwich_check.self_s"] = self_s("envelope.sandwich_check")

    gmt = "kernels.grid_max_threshold"
    for part in ("lobe", "cross_check"):
        pick = lambda s, part=part: s.attrs["part"] == part  # noqa: E731
        m[f"{gmt}.{part}.calls"] = sum(1 for s in by_name[gmt] if pick(s))
        m[f"{gmt}.{part}.s"] = incl(gmt, pick)
        m[f"{gmt}.{part}.points"] = attr_sum(gmt, "points", pick)
    for name in ("kernels.grid_min_margin", "kernels.grid_max_limit_shape"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = incl(name)
        m[f"{name}.points"] = attr_sum(name, "points")
    kernel_names = (gmt, "kernels.grid_min_margin", "kernels.grid_max_limit_shape")
    m["kernels.points_per_s"] = ratio(
        sum(attr_sum(n, "points") for n in kernel_names), sum(incl(n) for n in kernel_names)
    )

    m["certmax.certified_alpha.calls"] = calls("certmax.certified_alpha")
    m["certmax.certified_alpha.s"] = incl("certmax.certified_alpha")
    m["certmax.certified_alpha.evaluations"] = attr_sum("certmax.certified_alpha", "evaluations")

    module_self = {mod: 0.0 for mod in MODULES}
    for s in spans:
        module_self[s.name.split(".", 1)[0]] += self_t[s.id]
    module_self["import"] = import_s * len(jobs)
    total = sum(module_self.values())
    for mod, t in module_self.items():
        m[f"self_share.{mod}"] = ratio(t, total)
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over passes; a key equal in every pass (a count) keeps its value."""
    out = {}
    for key in per_pass[0]:
        values = [p[key] for p in per_pass]
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
