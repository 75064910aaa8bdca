"""Tests of the benchmark itself: oracle, job lists and tracer.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import re
import sys
from collections import Counter, defaultdict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import jobs as joblib  # noqa: E402
import oracle  # noqa: E402
import tracer as tracelib  # noqa: E402
from jobs import Job  # noqa: E402

import unimodal_lab.cli  # noqa: E402,F401  (the tracer patches loaded modules)

REF = oracle.load_reference()


def run_cli(job: Job, tmp_path) -> tuple[int, str]:
    infile = None
    if job.coeffs is not None:
        infile = str(tmp_path / "coeffs.txt")
        with open(infile, "w", encoding="utf-8") as fh:
            fh.write(" ".join(map(str, job.coeffs)))
    results, _ = tracelib.run_inprocess([job], {0: infile} if infile else {})
    return results[0]


def set_field(fmt: str, out: str, key: str, fn) -> str:
    """Rewrite the first occurrence of field ``key`` (dotted for nested json)."""
    if fmt == "json":
        doc = json.loads(out)
        node = doc["rows"][0] if "rows" in doc else doc
        *path, last = key.split(".")
        for part in path:
            node = node[part]
        node[last] = fn(node[last])
        return json.dumps(doc)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        col = rows[0].index(key)
        rows[1][col] = fn(rows[1][col])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    found = re.search(rf"(?:^|[ \n]){re.escape(key)}=([^ \n]*)", out)
    return out[:found.start(1)] + str(fn(found.group(1))) + out[found.end(1):]


def flip(v):
    return (not v) if isinstance(v, bool) else ("false" if v == "true" else "true")


def bump(v):
    return int(v) + 1 if isinstance(v, int) else str(int(v) + 1)


def widen(v):
    return float(v) * (1 + 1e-9) if isinstance(v, float) else repr(float(v) * (1 + 1e-9))


# (job, field to corrupt, how); every format of every subcommand is covered
CASES = [
    (Job("check", "t", m=6, k=3), "unimodal", flip),
    (Job("check", "t", m=5, k=3), "strongly_unimodal", flip),
    (Job("scan-theorem1", "t", k_min=3, k_max=5), "min_m_strong", bump),
    (Job("probe-inequality", "t", k=6), "holds", flip),
    (Job("eclass", "t", k=9), "m_of_k", bump),
    (Job("scan-eclass", "t", k_min=9, k_max=11), "m_of_k", bump),
    (Job("scan-eclass", "t", k_min=9, k_max=11), "in_sandwich", flip),
    (Job("certmax", "t"), "value_enclosure.hi", widen),
    (Job("general", "t", coeffs=(3, 0, 0, 5)), "min_n", bump),
]


@pytest.mark.parametrize("fmt", joblib.FORMATS)
@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0].kind}-{c[1]}")
def test_oracle_accepts_real_and_rejects_corrupted_output(case, fmt, tmp_path):
    base, key, how = case
    job = dataclasses.replace(base, fmt=fmt)
    rc, out = run_cli(job, tmp_path)
    assert oracle.judge(job, rc, out, REF) is None
    if fmt != "json" and key == "value_enclosure.hi":
        key = "value_hi"
    assert oracle.judge(job, rc, set_field(fmt, out, key, how), REF) is not None
    assert oracle.judge(job, 2 if rc == 0 else 0, out, REF) is not None
    assert oracle.judge(job, rc, out[: len(out) // 2], REF) is not None


def test_oracle_rejects_eclass_flip_and_version_corruption(tmp_path):
    job = Job("eclass", "t", fmt="json", k=9)
    rc, out = run_cli(job, tmp_path)
    doc = json.loads(out)
    doc["certificate_below"]["member"] = True
    assert oracle.judge(job, rc, json.dumps(doc), REF) is not None
    version = Job("version", "t")
    rc, out = run_cli(version, tmp_path)
    assert oracle.judge(version, rc, out, REF) is None
    assert oracle.judge(version, rc, "", REF) is not None
    assert oracle.judge(version, 1, out, REF) is not None


def test_oracle_expects_not_found_when_the_reference_finds_nothing(tmp_path):
    job = Job("general", "t", fmt="text", coeffs=(3, 0, 0, 5), cap=1)
    assert oracle.reference_min_n(job.coeffs, 1) is None
    rc, out = run_cli(job, tmp_path)
    assert rc == oracle.EXIT_NOT_FOUND
    assert oracle.judge(job, rc, out, REF) is None
    assert oracle.judge(job, 0, "min_n=1\n", REF) is not None


@pytest.mark.parametrize("workload", list(joblib.WORKLOADS))
def test_job_list_is_deterministic_per_seed(workload):
    for seed in range(5):
        assert joblib.job_list(workload, seed) == joblib.job_list(workload, seed)
    assert len({tuple(joblib.job_list(workload, s)) for s in range(5)}) > 1


def _cost_key(job: Job) -> int:
    return job.k_max if job.k_max is not None else (job.k or 0)


@pytest.mark.parametrize("workload", list(joblib.WORKLOADS))
def test_cost_bands_are_the_same_across_seeds(workload):
    bands = [Counter(j.band for j in joblib.job_list(workload, s)) for s in range(50)]
    assert all(b == bands[0] for b in bands)
    if workload == "cli-burst":
        return  # start-up bound: k does not move the cost
    # antithetic draws keep the sum of the cost-driving k fixed per band
    sums = []
    for s in range(50):
        per_band = defaultdict(int)
        for j in joblib.job_list(workload, s):
            per_band[j.band] += _cost_key(j)
        sums.append(dict(per_band))
    assert all(x == sums[0] for x in sums)


@pytest.mark.parametrize("workload", list(joblib.WORKLOADS))
def test_reference_covers_every_drawable_k(workload):
    for s in range(50):
        for j in joblib.job_list(workload, s):
            if j.kind == "eclass":
                assert j.k in REF
            if j.kind == "scan-eclass":
                assert all(k in REF for k in range(j.k_min, j.k_max + 1))


SMALL_JOBS = [
    Job("check", "t", fmt="text", m=6, k=3),
    Job("scan-theorem1", "t", fmt="csv", k_min=3, k_max=6),
    Job("probe-inequality", "t", fmt="json", k=6),
    Job("eclass", "t", fmt="json", k=9),
    Job("scan-eclass", "t", fmt="csv", k_min=9, k_max=14),
    Job("certmax", "t", fmt="text"),
    Job("general", "t", fmt="json", coeffs=(3, 0, 0, 5)),
    Job("version", "t"),
]


def _traced(tmp_path) -> tracelib.Tracer:
    path = tmp_path / "coeffs.txt"
    path.write_text("3 0 0 5\n")
    tr = tracelib.Tracer()
    with tr.installed():
        results, _ = tracelib.run_inprocess(SMALL_JOBS, {6: str(path)}, tr)
    for job, (rc, out) in zip(SMALL_JOBS, results):
        assert oracle.judge(job, rc, out, REF) is None
    return tr


def _module_state() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == tracelib.PKG or name.startswith(tracelib.PKG + ".")
        for attr, value in vars(mod).items()
    }


def test_traced_run_leaves_module_attributes_as_found(tmp_path, monkeypatch):
    monkeypatch.setenv("UNIMODAL_LAB_THREADS", "2")  # exercise the pool on any host
    before = _module_state()
    tr = _traced(tmp_path)
    after = _module_state()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    assert {s.name for s in tr.spans} >= {"cli.main", "thresholds.minimal_m", "envelope.max_threshold",
                                         "kernels.grid_max_threshold", "certmax.certified_alpha"}


def test_worker_thread_spans_have_the_submitting_span_as_parent(tmp_path, monkeypatch):
    monkeypatch.setenv("UNIMODAL_LAB_THREADS", "2")
    tr = _traced(tmp_path)
    by_id = {s.id: s for s in tr.spans}
    scan_job = next(i for i, j in enumerate(SMALL_JOBS) if j.kind == "scan-eclass")
    rows = [s for s in tr.spans if s.job == scan_job and s.name == "envelope.max_threshold"]
    assert len(rows) == 6
    assert all(by_id[s.parent].name == "cli.main" for s in rows)
    selfs = tracelib._self_times(tr.spans)
    assert all(-1e-9 <= selfs[s.id] <= s.end - s.start + 1e-9 for s in tr.spans)


def test_traced_counts_repeat_exactly(tmp_path):
    def counts():
        m = tracelib.layer_metrics(_traced(tmp_path), SMALL_JOBS, 0.2)
        return {k: v for k, v in m.items() if k.endswith((".calls", ".points", ".coeffs", ".evaluations"))}

    first, second = counts(), counts()
    assert first == second
    assert first["cli.main.calls"] == len(SMALL_JOBS)
    assert first["envelope.threshold_value.calls"] > 0
