"""Fixed reference work, timed next to every build and set-up sample.

`reference_seconds` shares no code with sliceforge: dict and set churn,
in-place passes over 8 MB arrays and many small numpy calls, the mix a build
spends its time on. Host contention slows it as it slows a build, so a
build's wall time divided by the reference's (`build_rel`) cancels the
host's speed of the moment. The parent times it right before it starts a
build's child, and the child right after its build; both run on the vCPU
the build runs on.

`spawn_seconds` starts a fresh interpreter that imports numpy: the same kind
of work as a set-up sample (exec, dynamic loading, imports, page faults)
without sliceforge. Contention slows process start-up differently from
computation, so set-up samples are scaled by this reference (`setup_s`).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

SPAWN_CODE = "import time, numpy; print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))"


def pin_to_build_cpu() -> set[int]:
    """Pin this process to the vCPU builds run on; returns the CPU set it had."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return cpus


def _work(big, tmp, mask, small) -> int:
    d: dict[int, int] = {}
    for i in range(300_000):
        d[i % 977] = d.get(i % 977, 0) + i
    s = {x * 7 % 20011 for x in range(60_000)} & set(range(0, 20011, 2))
    n = 0
    for _ in range(12):
        np.multiply(big, 1.0001, out=tmp)
        np.sqrt(np.abs(tmp, out=tmp), out=tmp)
        np.greater_equal(tmp, 40.0, out=mask)
        n += int(np.count_nonzero(mask))
    for k in range(8000):
        np.unique(small[k % len(small)])
    return n + len(s) + len(d)


def reference_seconds() -> float:
    """Wall time of one pass. The buffers are allocated and written before
    the timer starts, so page faults stay out of the timing."""
    rng = np.random.default_rng(12345)
    big = rng.standard_normal(1_000_000) * 1000.0 + 2000.0
    tmp, mask = np.ones_like(big), np.ones(big.shape, dtype=bool)
    small = rng.integers(0, 4, size=(64, 4, 4, 4))
    t0 = time.perf_counter()
    _work(big, tmp, mask, small)
    return time.perf_counter() - t0


def spawn_seconds(env: dict) -> float:
    """Seconds from spawning a fresh interpreter until it has imported numpy."""
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    out = subprocess.run([sys.executable, "-c", SPAWN_CODE], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    return (int(out.stdout.split()[-1]) - t0) / 1e9
