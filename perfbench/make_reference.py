"""Regenerate ``reference.json``, the m(k) table the output oracle checks against.

The table records ``m_of_k`` as the package computed it at the commit the
benchmark was defined on, for every k the workloads can draw:

* the default 100,000-point grid for 9 <= k <= 1000;
* the 10x (1,000,000-point) grid for the k range ``eclass`` draws at that size.

Both grids must agree wherever both were computed, so one table is stored.
Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

from unimodal_lab import envelope

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import jobs  # noqa: E402


def m_of_k(k: int, grid: int) -> int:
    return envelope.max_threshold(envelope.ThetaScan(k, grid_points=grid)).min_m


def main() -> int:
    table = {k: m_of_k(k, jobs.DEFAULT_GRID) for k in range(jobs.K_ECLASS_MIN, jobs.K_ECLASS_MAX + 1)}
    lo, hi = jobs.ECLASS_LARGE_K
    mismatches = []
    for k in range(lo, hi + 1):
        m = m_of_k(k, jobs.LARGE_GRID)
        if m != table[k]:
            mismatches.append((k, table[k], m))
    if mismatches:
        for k, m_def, m_big in mismatches:
            print(f"k={k}: m_of_k {m_def} at grid {jobs.DEFAULT_GRID}, {m_big} at grid {jobs.LARGE_GRID}")
        return 1
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"m_of_k": {str(k): m for k, m in table.items()}}, fh, indent=0, sort_keys=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
