"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared host a core's speed drifts with the neighbours' load: on the
2-core 2.1 GHz Xeon guest the benchmark was written on, one `random` pass
took between 3.6 s and 6.3 s within four minutes, with under 1 % steal and
no other load inside the guest, so the slowdown is in the hardware the
guests share.  The drift is uniform enough that a short kernel run next to
each call moves with it: over those four minutes the quartile spread of
the pass time was 0.17, and that of the pass time divided by the kernel
time next to it 0.04 (with a first mix of the kernel, without the 32 MB
block); with this kernel, over four calmer minutes, 0.042 and 0.031.

The kernel mixes the kinds of work lipgrowth does: interpreted loops with
dict updates, a block of numpy uniform draws and a filter over it (32 MB,
memory-bound), a small BLAS product and big-integer additions.  It touches
no lipgrowth code, so no change to the package can change it.
"""
from __future__ import annotations

import time

import numpy as np

# About the kernel's median time on that host (its least was 0.046 s).
# Dividing a figure by the measured kernel time and multiplying by this
# reads it as seconds at that speed; it only sets the scale.
NOMINAL_S = 0.06

_A = np.random.default_rng(0).random((200, 200))
_BIG = 7 ** 300


def _kernel() -> int:
    s, table = 0, {}
    for i in range(150_000):
        s += (i * i) % 7
        table[i % 1000] = s
    # one block the size lipgrowth's ER sampler draws at a time
    rng = np.random.default_rng(1)
    s += int(np.flatnonzero(rng.random(1 << 22) < 1e-4).size)
    for _ in range(10):
        _A @ _A
    x = 0
    for i in range(20_000):
        x += _BIG >> (i % 64)
    return s + x % 1000


def measure() -> tuple[float, float]:
    """Wall and thread-CPU seconds of one run of the kernel."""
    w0, c0 = time.perf_counter(), time.thread_time()
    _kernel()
    return time.perf_counter() - w0, time.thread_time() - c0


def scaled(seconds: float, kernel_seconds: float, runs: int = 1) -> float:
    """``seconds`` at the nominal speed, given ``runs`` kernel runs that
    took ``kernel_seconds`` in all."""
    return seconds * NOMINAL_S * runs / kernel_seconds
