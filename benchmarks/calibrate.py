"""Machine-speed calibration for the benchmark's timings.

On the shared 2-vCPU host this benchmark was built on, the speed of the vCPU
drifts by up to 2x over tens of seconds; process CPU time drifts with wall
time, so it is not descheduling. Over ten runs per workload, the medians of
raw unit times spread by 23-45% (interquartile range over median) on the
single-threaded workloads; rescaled as below, by 2-9%.

Every timed unit is therefore bracketed by a short fixed kernel (interpreter
work plus small numpy operations, like the program itself), and its time is
rescaled to the speed at which that kernel takes ``REFERENCE_S``:

    scaled = raw * REFERENCE_S / mean(kernel before, kernel after)

The scaled times are still seconds, at a fixed reference speed; ``REFERENCE_S``
is the kernel's fastest time on that host (Intel Xeon, 2.0 GHz vCPUs, Python
3.11.7, numpy 2.4.6). The raw medians go into each run's record.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.005


def _kernel() -> float:
    acc = 0.0
    vec = np.linspace(0.0, 1.0, 16)
    for _ in range(1000):
        vec = np.sqrt(vec * vec + 1e-3)
        acc += float(vec.sum())
        acc += sum(j * j for j in range(40)) * 1e-9
    return acc


def kernel_seconds() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def timed(fn, *args):
    """Run ``fn(*args)``; returns (result, raw seconds, scale to reference speed)."""
    before = kernel_seconds()
    start = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - start
    after = kernel_seconds()
    return result, raw, REFERENCE_S / ((before + after) / 2)
