"""Summary statistics, process measurements and the environment block.

Percentiles use the nearest-rank rule, and a percentile is only reported
when the sample has at least :data:`MIN_BEYOND` samples strictly beyond
it: a p99 needs 1000 samples.  Fewer samples make it undefined rather
than silently equal to the maximum.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
from pathlib import Path

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank *q*-quantile (``0 < q < 1``) of *samples*, or None
    when fewer than :data:`MIN_BEYOND` samples would lie beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    ordered = sorted(samples)
    value = ordered[rank - 1]
    beyond = n - rank
    if beyond < MIN_BEYOND:
        return None
    return value


def highest_supported_quantile(n: int) -> float | None:
    """The largest quantile (in hundredths) with MIN_BEYOND samples
    beyond it in a sample of *n*, or None when there is none."""
    for hundredths in range(99, 0, -1):
        if n - max(1, math.ceil(hundredths / 100 * n)) >= MIN_BEYOND:
            return hundredths / 100
    return None


def median(samples: list[float]) -> float | None:
    return statistics.median(samples) if samples else None


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports
    ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_rev(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``unknown`` outside a git work tree."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (root / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(root),
    }
