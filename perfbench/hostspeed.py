"""Host-speed correction for timings taken on a shared host.

On a shared host the speed of a vCPU drifts with the neighbours' load: a
fixed piece of work can take up to twice its best CPU time, in phases that
last from seconds to more than a minute (see README.md, "Environment and
noise"). The drift scales CPU time and wall time alike, so it does not come
from scheduling inside the process, and no statistic over the repetitions of
one run can remove a phase that covers the whole run.

So every repetition is bracketed by a calibration: a fixed block of small
numpy operations and interpreter work, owned by the benchmark and never by
the program. Its CPU time, against ``REFERENCE_BLOCK_S``, gives the host's
speed around the repetition. A timed interval is then reported as

    corrected = (wall - cpu) + cpu * scale,    scale = REFERENCE_BLOCK_S / block_s

where ``cpu`` is the process CPU time spent in the interval. Waiting (on
sockets, timers, other threads) stays as measured; computing is rescaled to
the reference speed. A CPU-bound interval therefore reads as the time it
would take on the reference host in its fast phase, and a wait-bound one
(socket-loopback's 40 ms ACK timer) reads as its wall time.
"""

from __future__ import annotations

import gc
import statistics
import time

# median CPU time of one calibration block on the reference host (2-vCPU
# Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6) in its fast phase
REFERENCE_BLOCK_S = 0.0063
BLOCKS = 25


def now() -> tuple[float, float]:
    """One clock reading: (wall seconds, process CPU seconds)."""
    return time.perf_counter(), time.process_time()


def _block() -> int:
    import numpy as np

    rng = np.random.default_rng(0)
    weights = rng.normal(size=(3, 2))
    x = rng.normal(size=(64, 2))
    onehot = np.eye(2)[(x[:, 0] > 0).astype(int)]
    store: dict[str, list[float]] = {}
    total = 0
    for step in range(200):
        z = x @ weights[:2] + weights[2]
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        weights[:2] -= 0.1 * (x.T @ (p - onehot)) / len(x)
        store[f"w{step}"] = sorted(float(v) for v in weights.ravel())
        for j in range(300):
            total += j * j % 7
    return total


def calibrate(blocks: int = BLOCKS) -> float:
    """Median CPU seconds of one calibration block, measured now.

    The cyclic garbage collector is off meanwhile, so the size of the
    program's heap does not leak into the measurement."""
    times = []
    gc.disable()
    try:
        for _ in range(blocks):
            started = time.process_time()
            _block()
            times.append(time.process_time() - started)
    finally:
        gc.enable()
    return statistics.median(times)


def scale_of(block_s: float) -> float:
    """Factor that brings CPU time measured at ``block_s`` to the reference speed."""
    return REFERENCE_BLOCK_S / block_s


def corrected(start: tuple[float, float], end: tuple[float, float], scale: float) -> float:
    """Seconds from ``start`` to ``end`` with the CPU part at reference speed."""
    wall = end[0] - start[0]
    cpu = end[1] - start[1]
    return wall - cpu + cpu * scale
