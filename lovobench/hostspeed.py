"""Host speed: a fixed reference kernel that every timing is scaled by.

The benchmark runs on shared virtual machines whose speed drifts by a
quarter or more over minutes, with no steal time reported: a query, and a
fixed pure-Python and BLAS loop timed next to it, both slow down together.
That drift is larger than the regression bounds the benchmark uses, so the
timings it reports are scaled to a reference host speed:

    reported = measured * REFERENCE_S / trimmed mean of kernel times in this phase

The kernel is the benchmark's own code and never changes with the program.
It mirrors the rerank stage's mix of small numpy operations and interpreter
work, and it is timed in the calling thread's CPU time, so time spent
waiting for the interpreter lock or for a CPU does not count and cannot hide
a regression.  Raw (unscaled) timings and the factors are recorded next to
every result.
"""

from __future__ import annotations

import gc
import time
from typing import List

import numpy as np

#: Thread CPU seconds one kernel call takes between queries on the reference
#: host (a 2-vCPU 2.1 GHz Xeon VM in a quiet phase, one BLAS thread).
REFERENCE_S = 0.0023

_RNG = np.random.RandomState(20240229)
_TOKENS = [_RNG.rand(128).astype(np.float32) for _ in range(40)]
_WEIGHTS = _RNG.rand(128, 128).astype(np.float32)
_ROUNDS = 25


def kernel_seconds() -> float:
    """Thread CPU seconds of one call of the reference kernel.

    The garbage collector is paused meanwhile: a collection triggered by the
    kernel's allocations would scan the program's heap, and a program that
    keeps more objects alive would then read as a slower host.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        for _ in range(_ROUNDS):
            stacked = np.stack(_TOKENS)
            projected = stacked @ _WEIGHTS
            unit = projected / np.linalg.norm(projected, axis=1, keepdims=True)
            scores = unit @ _WEIGHTS[0]
            ranked = {index: score for index, score in enumerate(scores.tolist())}
            sorted(ranked.items(), key=lambda item: item[1])
        return time.thread_time() - start
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Kernel samples taken during one phase of a run (set-up, or the window)."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            self.samples.append(kernel_seconds())

    def factor(self) -> float:
        """How much slower than the reference host this phase ran (1.0 = as fast).

        The host switches between a fast and a slow speed every few
        milliseconds, so a 2 ms kernel call reads one or the other, and a
        long query meets both in proportion.  The factor is therefore the
        kernel's mean time, not its median, with the fastest and slowest
        tenth of the samples (preemptions, cold caches) left out.
        """
        if not self.samples:
            raise RuntimeError("host speed was never sampled")
        ordered = sorted(self.samples)
        trim = len(ordered) // 10
        kept = ordered[trim:len(ordered) - trim]
        return sum(kept) / len(kept) / REFERENCE_S

    def scale(self, seconds: float) -> float:
        """``seconds`` measured in this phase, at the reference host speed."""
        return seconds / self.factor()
