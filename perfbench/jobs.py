"""Seeded job lists for the three benchmark workloads.

A job is one CLI invocation, ``python -m unimodal_lab <argv>``. The seed
draws the k windows, the (m, k) pairs, the ``general`` sequences, the
output formats and the job order. It never changes how many jobs fall in
each cost band: draws that move cost are made in antithetic pairs
(``c - d`` and ``c + d``) around a fixed centre, so the pass cost, and
with it ``wall_s``, stays comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

FORMATS = ("text", "csv", "json")
DEFAULT_GRID = 100_000
LARGE_GRID = 10 * DEFAULT_GRID

# k ranges the m(k) reference table covers; see make_reference.py
K_ECLASS_MIN = 9
K_ECLASS_MAX = 1000
ECLASS_LARGE_K = (100, 1000)
# scan-eclass windows start at 17: below it a k costs about twice as much,
# and the seeded window offset would move the pass cost
SCAN_ECLASS_K = (17, 200)


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what the oracle needs to judge its output."""

    kind: str  # subcommand name, or "version"
    band: str  # cost band; the same multiset of bands for every seed
    fmt: Optional[str] = None
    k: Optional[int] = None
    m: Optional[int] = None
    k_min: Optional[int] = None
    k_max: Optional[int] = None
    grid: Optional[int] = None
    coeffs: Optional[tuple[int, ...]] = None
    cap: Optional[int] = None

    def argv(self, infile: Optional[str] = None) -> list[str]:
        """CLI arguments; ``infile`` is the path holding ``coeffs`` for ``general``."""
        if self.kind == "version":
            return ["--version"]
        out = [self.kind]
        if self.kind == "general":
            if infile is None:
                raise ValueError("general needs the path of its coefficient file")
            out.append(infile)
        for flag, value in (("--m", self.m), ("--k", self.k), ("--k-min", self.k_min),
                            ("--k-max", self.k_max), ("--grid", self.grid), ("--cap", self.cap)):
            if value is not None:
                out += [flag, str(value)]
        out += ["--format", self.fmt]
        return out


def _pair(rng: random.Random, centre: int, spread: int) -> tuple[int, int]:
    d = rng.randint(0, spread)
    return centre - d, centre + d


def exact_scan(rng: random.Random) -> list[Job]:
    """Big-integer exact lane: scan-theorem1 up to k ~ 80, check and probe at large k.

    Never touches kernels, envelope or certmax. Per pass the two scans are
    the slowest jobs, the four member checks sit in the middle (so the
    median and the p67 tail both land inside one cost band) and the
    non-member checks and probes are the fastest.
    """
    fmt = lambda: rng.choice(FORMATS)  # noqa: E731
    jobs = []
    for k in _pair(rng, 78, 2):
        jobs.append(Job("scan-theorem1", "scan-heavy", fmt(), k_min=k, k_max=k))
    for _ in range(2):
        for k in _pair(rng, 88, 1):
            jobs.append(Job("check", "check-member", fmt(), m=k * k - 3, k=k))
    for k in _pair(rng, 88, 1):
        jobs.append(Job("check", "check-nonmember", fmt(), m=k * k - 4, k=k))
    for k in _pair(rng, 70, 1):
        jobs.append(Job("probe-inequality", "probe-large", fmt(), k=k))
    return jobs


def envelope_scan(rng: random.Random) -> list[Job]:
    """NumPy grid lane: scan-eclass windows up to k = 200, eclass up to k = 1000."""
    fmt = lambda: rng.choice(FORMATS)  # noqa: E731
    jobs = []
    lo, hi = SCAN_ECLASS_K
    width = 64
    for _ in range(2):
        a = rng.randint(lo, hi - width + 1)
        b = lo + hi - (a + width - 1)  # mirror image of [a, a + width - 1]
        for start in (a, b):
            jobs.append(Job("scan-eclass", "scan-eclass", fmt(), k_min=start, k_max=start + width - 1))
    lo, hi = ECLASS_LARGE_K
    for band, grid, pairs in (("eclass-large-grid", LARGE_GRID, 2), ("eclass-default-grid", None, 1)):
        for _ in range(pairs):
            k = rng.randint(lo, hi)
            for kk in (k, lo + hi - k):
                jobs.append(Job("eclass", band, fmt(), k=kk, grid=grid))
    return jobs


def _general_coeffs(rng: random.Random) -> tuple[int, ...]:
    n = rng.randint(3, 7)
    inner = [rng.choice((0, rng.randint(1, 40))) for _ in range(n - 2)]
    return (rng.randint(1, 40), *inner, rng.randint(1, 40))


def cli_burst(rng: random.Random) -> list[Job]:
    """Many short default-size jobs: start-up dominates."""
    fmt = lambda: rng.choice(FORMATS)  # noqa: E731
    jobs = []
    for i in range(6):
        k = rng.randint(3, 12)
        m = k * k - 3 if i % 2 == 0 else k * k - 4  # member, then non-member
        jobs.append(Job("check", "check-small", fmt(), m=m, k=k))
    for _ in range(4):
        jobs.append(Job("probe-inequality", "probe-small", fmt(), k=rng.randint(5, 20)))
    for _ in range(6):
        jobs.append(Job("eclass", "eclass-small", fmt(), k=rng.randint(9, 30)))
    for _ in range(3):
        jobs.append(Job("certmax", "certmax", fmt()))
    for i in range(5):
        jobs.append(Job("general", "general", fmt(), coeffs=_general_coeffs(rng),
                        cap=1 if i < 2 else None))
    for _ in range(4):
        jobs.append(Job("version", "version"))
    return jobs


WORKLOADS = {
    "exact-scan": exact_scan,
    "envelope-scan": envelope_scan,
    "cli-burst": cli_burst,
}

# Nominal seconds per pass on a 2-CPU x86 host at the commit the benchmark was
# defined on. A run makes max(1, round(run_seconds / PASS_SECONDS)) passes, so
# the amount of work, and the rank the tail percentile sits at, does not depend
# on how fast a particular run happens to go.
PASS_SECONDS = {
    "exact-scan": 10.5,
    "envelope-scan": 6.0,
    "cli-burst": 6.5,
}


def job_list(workload: str, seed: int) -> list[Job]:
    """The deterministic, shuffled job list of one pass of ``workload``."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs


def passes(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))
