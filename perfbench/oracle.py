"""Independent checks of every job's output.

``judge(job, returncode, stdout)`` returns None when the output is right and
a one-line reason when it is not. The rules restate the package's claims
without calling into it:

* scan-theorem1: every row has both thresholds equal to k^2 - 3;
* check: at m = k^2 - 3 both verdicts are true, at k^2 - 4 both are false;
* probe-inequality: the inequality holds at every u in the audited range;
* eclass, scan-eclass: m(k) equals the reference table, the member /
  non-member flip holds and the maximum lies in the alpha sandwich;
* certmax: the enclosure lies inside ALPHA_OUTER;
* general: min_n, or exit 4, matches a pure-Python reference.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from typing import Optional, Sequence

from jobs import Job

ALPHA_OUTER = (0.32293204738061, 0.32293204738262)
EXIT_NOT_FOUND = 4

_HERE = os.path.dirname(os.path.abspath(__file__))


def load_reference() -> dict[int, int]:
    """The m(k) table recorded by make_reference.py."""
    with open(os.path.join(_HERE, "reference.json"), encoding="utf-8") as fh:
        return {int(k): m for k, m in json.load(fh)["m_of_k"].items()}


class _Bad(Exception):
    pass


def _need(cond: bool, reason: str) -> None:
    if not cond:
        raise _Bad(reason)


def _records(fmt: str, stdout: str) -> list[dict]:
    """Rows of a tabular output as dicts of strings (text rows or csv)."""
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(stdout)))
    rows = []
    for line in stdout.splitlines():
        if line.strip():
            rows.append(dict(tok.split("=", 1) for tok in line.split(" ")))
    return rows


def _pairs(stdout: str) -> dict:
    """A text-format single record: key=value lines (values may hold spaces)."""
    return dict(line.split("=", 1) for line in stdout.splitlines() if line.strip())


def _single(fmt: str, stdout: str) -> dict:
    if fmt == "json":
        return json.loads(stdout)
    if fmt == "csv":
        rows = _records("csv", stdout)
        _need(len(rows) == 1, f"expected one csv row, got {len(rows)}")
        return rows[0]
    return _pairs(stdout)


def _rows(fmt: str, stdout: str) -> list[dict]:
    if fmt == "json":
        return json.loads(stdout)["rows"]
    return _records(fmt, stdout)


def _bool(v) -> bool:
    if isinstance(v, bool):
        return v
    _need(v in ("true", "false"), f"not a boolean: {v!r}")
    return v == "true"


def _int(v) -> int:
    _need(not isinstance(v, bool), f"not an integer: {v!r}")
    return int(v)


def _strongly_unimodal(seq: Sequence[int]) -> bool:
    nz = [i for i, c in enumerate(seq) if c]
    if not nz:
        return True
    a = seq[nz[0]:nz[-1] + 1]
    if any(c == 0 for c in a):
        return False
    return all(a[i] * a[i] >= a[i - 1] * a[i + 1] for i in range(1, len(a) - 1))


def reference_min_n(p: Sequence[int], cap: int) -> Optional[int]:
    """Smallest N <= cap with (1+x)^N p(x) strongly unimodal, else None.

    Builds each product from the binomial formula directly rather than by
    repeated multiplication, so it shares no code path with the package.
    """
    for n in range(cap + 1):
        q = [
            sum(p[i] * math.comb(n, j - i) for i in range(len(p)) if 0 <= j - i <= n)
            for j in range(len(p) + n)
        ]
        if _strongly_unimodal(q):
            return n
    return None


def _check(job: Job, rc: int, out: str, ref: dict[int, int]) -> None:
    _need(rc == 0, f"exit code {rc}")
    rec = _single(job.fmt, out)
    _need(_int(rec["m"]) == job.m and _int(rec["k"]) == job.k, "echoed (m, k) differ")
    want = job.m >= job.k * job.k - 3
    for key in ("unimodal", "strongly_unimodal"):
        _need(_bool(rec[key]) == want, f"{key} should be {want} at m={job.m}, k={job.k}")


def _scan_theorem1(job: Job, rc: int, out: str, ref: dict[int, int]) -> None:
    _need(rc == 0, f"exit code {rc}")
    rows = _rows(job.fmt, out)
    ks = [_int(r["k"]) for r in rows]
    _need(ks == list(range(job.k_min, job.k_max + 1)), f"rows cover k={ks}")
    for r in rows:
        k = _int(r["k"])
        for key in ("min_m_strong", "min_m_unimodal"):
            _need(_int(r[key]) == k * k - 3, f"{key}={r[key]} at k={k}, expected {k * k - 3}")


def _probe_inequality(job: Job, rc: int, out: str, ref: dict[int, int]) -> None:
    _need(rc == 0, f"exit code {rc}")
    k = job.k
    rows = _rows(job.fmt, out)
    us = [_int(r["u"]) for r in rows]
    _need(us == list(range(k, (k * k + k - 6) // 2 + 1)), "rows do not cover the audited u range")
    _need(all(_bool(r["holds"]) for r in rows), "inequality fails at some u")
    if job.fmt == "json":
        _need(_bool(json.loads(out)["all_hold"]), "all_hold is false")


def _eclass(job: Job, rc: int, out: str, ref: dict[int, int]) -> None:
    _need(rc == 0, f"exit code {rc}")
    rec = _single(job.fmt, out)
    _need(_int(rec["k"]) == job.k, "echoed k differs")
    _need(_int(rec["m_of_k"]) == ref[job.k], f"m_of_k={rec['m_of_k']} at k={job.k}, reference {ref[job.k]}")
    if job.fmt == "json":
        _need(rec["certificate_at_m_of_k"]["member"] is True, "not a member at m_of_k")
        _need(rec["certificate_below"]["member"] is False, "still a member below m_of_k")
        _need(rec["sandwich"]["max_in_enclosure"] is True, "maximum outside the alpha sandwich")
    elif job.fmt == "text":
        _need(_bool(rec["member_at_m_of_k"]), "not a member at m_of_k")
        _need(not _bool(rec["member_below"]), "still a member below m_of_k")
        _need(_bool(rec["max_in_enclosure"]), "maximum outside the alpha sandwich")


def _scan_eclass(job: Job, rc: int, out: str, ref: dict[int, int]) -> None:
    _need(rc == 0, f"exit code {rc}")
    rows = _rows(job.fmt, out)
    ks = [_int(r["k"]) for r in rows]
    _need(ks == list(range(job.k_min, job.k_max + 1)), "rows do not cover the window")
    for r in rows:
        k = _int(r["k"])
        _need(_int(r["m_of_k"]) == ref[k], f"m_of_k={r['m_of_k']} at k={k}, reference {ref[k]}")
        _need(_bool(r["in_sandwich"]), f"k={k} outside the alpha sandwich")


def _certmax(job: Job, rc: int, out: str, ref: dict[int, int]) -> None:
    _need(rc == 0, f"exit code {rc}")
    rec = _single(job.fmt, out)
    if job.fmt == "json":
        rec = rec["value_enclosure"]
        lo, hi = float(rec["lo"]), float(rec["hi"])
    else:
        lo, hi = float(rec["value_lo"]), float(rec["value_hi"])
    _need(ALPHA_OUTER[0] <= lo <= hi <= ALPHA_OUTER[1], f"enclosure [{lo!r}, {hi!r}] not inside {ALPHA_OUTER}")


def _general(job: Job, rc: int, out: str, ref: dict[int, int]) -> None:
    want = reference_min_n(job.coeffs, 64 if job.cap is None else job.cap)
    if want is None:
        _need(rc == EXIT_NOT_FOUND, f"exit code {rc}, expected {EXIT_NOT_FOUND}")
        _need(out == "", "output printed for a not-found result")
        return
    _need(rc == 0, f"exit code {rc}")
    rec = _single(job.fmt, out)
    _need(_int(rec["min_n"]) == want, f"min_n={rec['min_n']}, reference {want}")
    if job.fmt == "json":
        _need(tuple(rec["coeffs"]) == job.coeffs, "echoed coefficients differ")


def _version(job: Job, rc: int, out: str, ref: dict[int, int]) -> None:
    _need(rc == 0, f"exit code {rc}")
    _need(out.startswith("unimodal-lab ") and len(out.split()) == 2, f"version line {out!r}")


_RULES = {
    "check": _check,
    "scan-theorem1": _scan_theorem1,
    "probe-inequality": _probe_inequality,
    "eclass": _eclass,
    "scan-eclass": _scan_eclass,
    "certmax": _certmax,
    "general": _general,
    "version": _version,
}


def judge(job: Job, rc: int, stdout: str, ref: dict[int, int]) -> Optional[str]:
    """None if the job's exit code and output are right, else the reason."""
    try:
        _RULES[job.kind](job, rc, stdout, ref)
    except _Bad as e:
        return str(e)
    except (KeyError, ValueError, TypeError, IndexError, AttributeError) as e:
        return f"unparseable output: {type(e).__name__}: {e}"
    return None
