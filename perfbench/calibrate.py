"""Host-speed calibration: a fixed CPU kernel timed next to the workload.

Shared 2-CPU Xeon virtual machines change speed by up to 1.5x within tens
of seconds: the same work takes 17 ms in one stretch and 27 ms in the
next, with no CPU time stolen from the process.  Raw host
times of two runs a minute apart then differ by 20-30% for reasons outside
the program.  The benchmark therefore times this kernel right after every
epoch and reports host times scaled to the kernel's reference speed:

    reference seconds = host seconds * REFERENCE_KERNEL_S / kernel seconds

A slowdown that stretches the epoch stretches the kernel beside it, and
the ratio cancels it.  The kernel mixes interpreted Python with small numpy
calls, like the simulator; its work never changes, so the scale is the same
for every commit.  Raw host times are kept in the result record.

A worker-pool fleet does its work on every CPU at once, and two busy CPUs
slow each other by a factor that itself drifts between 0.9x and 2x on
these hosts.  Its kernel therefore runs inside every worker at the same
time (through ``map_blocks``), against its own reference time.
"""

from __future__ import annotations

import statistics
from functools import partial
from itertools import count
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

_SIZE = 60_000
#: The kernel's time on a 2-CPU Xeon host at its usual speed.
REFERENCE_KERNEL_S = 0.0055
#: The same, with the kernel running in both workers of a 2-worker pool at once.
REFERENCE_POOL_KERNEL_S = 0.0080

_last_token: object = None
_tokens = count()


def kernel() -> float:
    """Run the kernel once; return its host time in seconds."""
    import numpy as np  # imported here so ``import repro`` is timed with numpy

    start = perf_counter()
    total = 0
    for i in range(_SIZE):
        total += i * i % 7
    values = np.sort(np.arange(_SIZE, dtype=np.float64)[::-1] * 1.5)
    if total < 0 or values[0] != 0.0:  # keeps the work observable
        raise AssertionError("calibration kernel miscomputed")
    return perf_counter() - start


def worker_kernel(token: object, index: int, block: object) -> Optional[float]:
    """``map_blocks`` probe: run the kernel once per worker per ``token``."""
    global _last_token
    if _last_token == token:
        return None
    _last_token = token
    return kernel()


def pool_kernel(map_blocks: Callable[[Callable[..., Any]], Dict[int, Any]]) -> float:
    """Kernel time inside every worker at once, as a single-kernel time."""
    times = [
        t for t in map_blocks(partial(worker_kernel, next(_tokens))).values() if t is not None
    ]
    return statistics.fmean(times) * REFERENCE_KERNEL_S / REFERENCE_POOL_KERNEL_S


def kernel_median(samples: int = 11) -> float:
    """Median time of a few back-to-back kernel runs."""
    return statistics.median(kernel() for _ in range(samples))


def smooth(kernel_s: Sequence[float], half_window: int = 2) -> List[float]:
    """Running median of per-epoch kernel times (one sample is noisy)."""
    return [
        statistics.median(kernel_s[max(0, i - half_window) : i + half_window + 1])
        for i in range(len(kernel_s))
    ]


def to_reference(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_KERNEL_S / kernel_s


def scale_epochs(epoch_s: Sequence[float], kernel_s: Sequence[float]) -> List[float]:
    """Each epoch's host time at the reference speed, from the kernel run
    right after it (smoothed)."""
    return [to_reference(t, k) for t, k in zip(epoch_s, smooth(kernel_s))]
