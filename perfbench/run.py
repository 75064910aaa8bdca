"""End-to-end benchmark of the unimodal-lab CLI.

Closed loop, one client: each job is ``python -m unimodal_lab ...`` in a
fresh process, started only after the previous one exited, timed from
process start to exit and checked by an independent oracle. With
``--trace 1`` the same jobs run in-process through ``cli.main(argv)``
under timing wrappers, and the run reports per-layer numbers instead.

Run from the repository root:

    python3 perfbench/run.py --workload exact-scan --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

The last line of stdout is one JSON object: correct, attempted, failed
and metrics. See perfbench/README.md for the workloads and metric names.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Optional

import jobs as joblib
import oracle
import tracer as tracelib

HERE = os.path.dirname(os.path.abspath(__file__))
GUARDED_ENV = ("UNIMODAL_LAB_THREADS", "UNIMODAL_LAB_PURE")
SETUP_SAMPLES = 9
IMPORTTIME_REPEATS = 5
JOB_TIMEOUT_S = 120.0
TAIL_BEYOND = 10
PASS_OVERRUN = 1.15

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units(name: str) -> str:
    if name.endswith("points_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith((".calls", ".points", ".coeffs", ".evaluations")):
        return "count"
    return "1"


class Refused(Exception):
    """The benchmark cannot run in this directory or environment."""


def _commit(root: str) -> str:
    # reads .git directly: the checkout may not be a repository, and git
    # itself would search the parent directories
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def job_env(src: str) -> dict:
    """The caller's environment, with the checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict, cwd: str) -> tuple[int, str, float, float]:
    """Run one CLI process; returns (exit code, stdout, seconds, max RSS in MB).

    A job still running after JOB_TIMEOUT_S is killed and reported with
    exit code -9.
    """
    with tempfile.TemporaryFile(mode="w+", dir=cwd) as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "unimodal_lab", *argv],
            stdout=out, stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL, env=env, cwd=cwd,
        )
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return proc.returncode, out.read(), seconds, usage.ru_maxrss / 1024.0


def write_infiles(job_list: list[joblib.Job], workdir: str) -> dict[int, str]:
    """Coefficient files for the ``general`` jobs, keyed by job index."""
    paths = {}
    for i, job in enumerate(job_list):
        if job.coeffs is not None:
            path = os.path.join(workdir, f"general-{i}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(" ".join(map(str, job.coeffs)) + "\n")
            paths[i] = path
    return paths


def time_version(env: dict, workdir: str) -> float:
    """Wall time of ``--version``: interpreter, package import and parser."""
    version = joblib.Job("version", "version")
    rc, out, seconds, _ = spawn(version.argv(), env, workdir)
    if oracle.judge(version, rc, out, {}) is not None:
        raise Refused(f"`python -m unimodal_lab --version` failed: exit {rc}, output {out!r}")
    return seconds


def tail_percentile(jobs_per_pass: int, n_passes: int) -> float:
    """Highest percentile with TAIL_BEYOND samples beyond it in a full run.

    A run too short to have that many gives its maximum (p100).
    """
    n = jobs_per_pass * n_passes
    return 100.0 * (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 100.0


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100.0 * len(ordered)), 1) - 1]


def run_untraced(workload: str, seed: int, seconds: float, env: dict, workdir: str, ref: dict, log):
    job_list = joblib.job_list(workload, seed)
    infiles = write_infiles(job_list, workdir)
    n_passes = joblib.passes(workload, seconds)
    # set-up samples are spread over the passes so that they see the same
    # machine conditions as the jobs
    setup_plan = [SETUP_SAMPLES // n_passes + (p < SETUP_SAMPLES % n_passes) for p in range(n_passes)]
    time_version(env, workdir)  # fills the bytecode caches
    setup, walls, latencies, rss, failures = [], [], [], [], []
    t_start = time.perf_counter()
    while len(walls) < n_passes:
        # on a machine much slower than the nominal one, stop early rather
        # than overrun the run length by more than PASS_OVERRUN
        if walls and time.perf_counter() - t_start + walls[-1] > PASS_OVERRUN * seconds:
            break
        setup += [time_version(env, workdir) for _ in range(setup_plan[len(walls)])]
        t0 = time.perf_counter()
        for i, job in enumerate(job_list):
            rc, out, secs, mb = spawn(job.argv(infiles.get(i)), env, workdir)
            reason = oracle.judge(job, rc, out, ref)
            if reason is not None:
                failures.append(f"pass {len(walls)} job {i} {' '.join(job.argv('FILE'))}: {reason}")
            latencies.append(secs)
            rss.append(mb)
        walls.append(time.perf_counter() - t0)
    # the percentile is fixed by the nominal run, so it does not move when a
    # slow run stops early
    tail_pct = tail_percentile(len(job_list), n_passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": nearest_rank(latencies, tail_pct),
        "peak_rss_mb": max(rss),
    }
    for line in failures:
        log(f"FAILED {line}")
    log(f"{workload}: {len(job_list)} jobs per pass x {len(walls)} passes = {len(latencies)} jobs")
    notes = {
        "setup_s": f"median of {len(setup)} `--version` runs",
        "wall_s": f"median of {len(walls)} passes",
        "job_p50_s": f"median of {len(latencies)} jobs",
        "job_tail_s": f"p{tail_pct:.1f} of {len(latencies)} jobs",
        "peak_rss_mb": f"max over {len(latencies)} jobs",
    }
    for name, value in metrics.items():
        log(f"  {name:<12} {value:12.6f} {END_TO_END_UNITS[name]:<3} {notes[name]}")
    log(f"  {'failed_frac':<12} {len(failures) / len(latencies):12.6f} 1   "
        f"{len(failures)} of {len(latencies)} jobs wrong, refused or timed out")
    units = {name: END_TO_END_UNITS[name] for name in metrics}
    extra = {"samples": len(latencies), "tail_percentile": tail_pct,
             "failed_frac": len(failures) / len(latencies)}
    return metrics, units, len(latencies), len(failures), extra


def import_times(env: dict, workdir: str) -> tuple[float, float]:
    """Median cumulative import seconds of numpy and of the package, from -X importtime.

    The package figure sums the top-level ``unimodal_lab*`` entries, which
    include numpy when the package imports it eagerly.
    """
    numpy_s, pkg_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "unimodal_lab", "--version"],
            capture_output=True, text=True, env=env, cwd=workdir, timeout=JOB_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise Refused(f"-X importtime run failed with exit {proc.returncode}")
        numpy_us = pkg_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            us = int(cumulative)
            if name.strip() == "numpy":
                numpy_us = us
            if name.startswith(" unimodal_lab"):  # top level: one space after the bar
                pkg_us += us
        numpy_s.append(numpy_us / 1e6)
        pkg_s.append(pkg_us / 1e6)
    return statistics.median(numpy_s), statistics.median(pkg_s)


def run_traced(workload: str, seed: int, seconds: float, env: dict, workdir: str, ref: dict, log,
               spans_path: str):
    job_list = joblib.job_list(workload, seed)
    infiles = write_infiles(job_list, workdir)
    numpy_s, pkg_s = import_times(env, workdir)
    failures = []
    attempted = 0
    plain_walls, traced_walls, per_pass, all_spans = [], [], [], []

    def judge_all(results, label):
        nonlocal attempted
        for i, (job, (rc, out)) in enumerate(zip(job_list, results)):
            attempted += 1
            reason = oracle.judge(job, rc, out, ref)
            if reason is not None:
                failures.append(f"{label} job {i} {' '.join(job.argv('FILE'))}: {reason}")

    def plain_pass():
        results, wall = tracelib.run_inprocess(job_list, infiles)
        judge_all(results, f"untraced pass {len(plain_walls)}")
        plain_walls.append(wall)

    def traced_pass():
        tr = tracelib.Tracer()
        with tr.installed():
            results, wall = tracelib.run_inprocess(job_list, infiles, tr)
        judge_all(results, f"traced pass {len(traced_walls)}")
        traced_walls.append(wall)
        per_pass.append(tracelib.layer_metrics(tr, job_list, pkg_s))
        all_spans.append(tr.spans)

    # untraced and traced passes alternate; at least one pair, then as many
    # as fit in the time asked for
    t_start = time.perf_counter()
    pair_s = 0.0
    while not traced_walls or time.perf_counter() - t_start + pair_s <= seconds:
        t_pair = time.perf_counter()
        # alternate which side goes first, so warm-up and drift fall on both
        first, second = (plain_pass, traced_pass) if len(traced_walls) % 2 == 0 else (traced_pass, plain_pass)
        first()
        second()
        pair_s = time.perf_counter() - t_pair
    metrics = {"import.numpy_s": numpy_s, "import.unimodal_lab_s": pkg_s}
    metrics.update(tracelib.median_metrics(per_pass))
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    counts = [{k: v for k, v in p.items() if per_layer_units(k) == "count"} for p in per_pass]
    if any(c != counts[0] for c in counts):
        failures.append("traced counts differ between passes")

    with open(spans_path, "w", encoding="utf-8") as fh:
        for p, spans in enumerate(all_spans):
            for s in spans:
                fh.write(json.dumps({"pass": p, "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "job": s.job, "attrs": s.attrs}) + "\n")

    for line in failures:
        log(f"FAILED {line}")
    log(f"{workload}: {len(traced_walls)} traced and {len(plain_walls)} untraced in-process passes "
        f"of {len(job_list)} jobs; spans in {os.path.relpath(spans_path)}")
    shares = {k.split(".", 1)[1]: v for k, v in metrics.items() if k.startswith("self_share.")}
    top = max(shares, key=shares.get)
    log(f"  largest self-time share: {top} ({shares[top]:.1%})")
    for name, value in metrics.items():
        log(f"  {name:<46} {value:16.6f} {per_layer_units(name)}")
    units = {name: per_layer_units(name) for name in metrics}
    return metrics, units, attempted, len(failures), {}


def environment(workload: str, seed: int, seconds: float, trace: int, src: str) -> dict:
    sys.path.insert(0, src)
    import numpy

    from unimodal_lab import cli, kernels

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _commit(os.getcwd()),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": kernels.backend(),
        "cli_threads": cli._threads(),
        "platform": platform.platform(),
    }


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*joblib.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "unimodal_lab", "__init__.py")):
        print("run.py: no src/unimodal_lab here; run from the repository root", file=sys.stderr)
        return 2
    present = [v for v in GUARDED_ENV if v in os.environ]
    if present:
        print(f"run.py: refusing to run with {', '.join(present)} set; the benchmark measures "
              "the defaults", file=sys.stderr)
        return 2

    workloads = list(joblib.WORKLOADS) if opts.workload == "all" else [opts.workload]
    env = job_env(src)
    ref = oracle.load_reference()
    outdir = os.path.join(HERE, "_out")
    os.makedirs(outdir, exist_ok=True)
    record = environment(opts.workload, opts.seed, opts.seconds, opts.trace, src)
    print("environment " + json.dumps(record, sort_keys=True), flush=True)

    def log(line: str) -> None:
        print(line, flush=True)

    metrics, units, attempted, failed, extra = {}, {}, 0, 0, {}
    try:
        with tempfile.TemporaryDirectory(dir=outdir) as workdir:
            for w in workloads:
                if opts.trace:
                    spans_path = os.path.join(outdir, f"spans-{w}-seed{opts.seed}.jsonl")
                    m, u, a, f, x = run_traced(w, opts.seed, opts.seconds, env, workdir, ref, log, spans_path)
                else:
                    m, u, a, f, x = run_untraced(w, opts.seed, opts.seconds, env, workdir, ref, log)
                prefix = f"{w}." if len(workloads) > 1 else ""
                metrics.update({prefix + k: v for k, v in m.items()})
                units.update({prefix + k: v for k, v in u.items()})
                extra.update({prefix + k: v for k, v in x.items()})
                attempted += a
                failed += f
    except Refused as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    with open(os.path.join(outdir, f"result-{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"environment": record, "metrics": metrics, "units": units, **extra,
                   "attempted": attempted, "failed": failed}, fh, indent=2, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
