"""Order statistics used by every workload of the benchmark.

Percentiles use the nearest-rank rule: the ``q``-th percentile of ``n``
sorted samples is the sample at rank ``ceil(q / 100 * n)``.  A tail
percentile is only reported when at least :data:`MIN_TAIL_SAMPLES` samples lie
beyond that rank, so a p90 needs 100 samples and a p99 needs 1000.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

#: A tail percentile is trusted only with at least this many samples above it.
MIN_TAIL_SAMPLES = 10

#: Percentiles the benchmark may report, highest first.
REPORTABLE_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(n: int, q: float) -> int:
    """1-based nearest rank; rounding first keeps ``99.9 * 10000 / 100`` at 9990."""
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th percentile."""
    return n - _rank(n, q)


def tail_percentile(n: int) -> float:
    """The highest reportable percentile with ``MIN_TAIL_SAMPLES`` samples beyond.

    Returns ``0.0`` when even the median is not backed by enough samples.
    """
    for q in REPORTABLE_PERCENTILES:
        if samples_beyond(n, q) >= MIN_TAIL_SAMPLES:
            return q
    return 0.0


def require_percentile(n: int, q: float, what: str) -> None:
    """Raise unless ``n`` samples support reporting the ``q``-th percentile."""
    if tail_percentile(n) < q:
        raise RuntimeError(
            f"{what}: {n} samples cannot support a p{q:g} "
            f"(needs {MIN_TAIL_SAMPLES} samples beyond it)"
        )


def median(values: Sequence[float]) -> float:
    """Nearest-rank median; equals ``percentile(values, 50)``."""
    return percentile(values, 50.0)


def interval_union(intervals: Iterable[tuple]) -> List[tuple]:
    """Merge ``(start, end)`` intervals into disjoint, sorted intervals."""
    merged: List[list] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def covered_length(intervals: Iterable[tuple], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = ((max(start, lo), min(end, hi)) for start, end in intervals)
    return sum(end - start for start, end in interval_union(clipped))
