"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures, prints
the same rows/series the paper reports, and writes them to
``benchmarks/results/`` so runs leave an auditable record.  Absolute
numbers come from our simulated substrates; the *shape* (who wins, by
roughly what factor, where crossovers fall) is what each bench asserts.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Sequence, Tuple

import numpy as np

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# Gate tolerances against the committed baselines: relative, for
# "roughly the same factor" comparisons, and absolute, for AUC and
# accuracy drift.
RATIO_TOL = 0.35
AUC_TOL = 0.08


def median_wall_s(fn: Callable[[], object],
                  reps: int) -> Tuple[float, float]:
    """Median and interquartile range, in seconds, of ``reps`` timed
    calls of ``fn``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    q1, median, q3 = np.percentile(times, (25, 50, 75))
    return float(median), float(q3 - q1)


def save_result(name: str, payload: dict) -> str:
    """Persist a benchmark's structured output as JSON."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, default=str)
    return path


def print_table(title: str, headers: Sequence[str],
                rows: Sequence[Sequence[object]]) -> None:
    """Render an aligned text table to stdout (shows under ``pytest -s``
    and in the saved text mirror)."""
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows))
              for i, h in enumerate(headers)]
    lines = [f"\n=== {title} ==="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    text = "\n".join(lines)
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "tables.txt"), "a") as f:
        f.write(text + "\n")
