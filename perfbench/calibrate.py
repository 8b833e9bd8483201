"""Machine-speed calibration for time metrics.

The benchmark machine is shared: its effective speed drifts by 20-30% over
seconds to minutes, far more than the changes the benchmark must resolve.
A fixed reference computation, timed many times during a run, tracks that
drift.  It mixes the kinds of work gevlab does, in about equal shares:
interpreted loops, numpy calls on one-element arrays (as scalar eigenvalue
lookups make), transcendental maps over 10^5-element arrays, and an
out-of-cache array summed through Python floats (as logsumexp does).

A time is scaled by REFERENCE_S / c, with c the median of the calibrations
taken just before and just after it: the time it would take on a machine
where the calibration takes REFERENCE_S.  The calibration code is part of the benchmark and never
changes with gevlab, so any change in gevlab's speed passes through the
scaling unchanged.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Calibration time on the reference machine (a typical reading on the
# 2-vCPU machine this benchmark was sized on).
REFERENCE_S = 0.035


def calibrate() -> float:
    """Wall seconds of the reference computation (about REFERENCE_S)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 100_001):
        acc += math.sqrt(i) * 1.0000001
    for k in range(1, 1_301):
        ks = np.asarray([k], dtype=np.int64).astype(float)
        acc += abs(complex((1.5 * ks**1.0 + 1j * ks**2.0)[0])) * 1e-12
    grid = np.arange(1, 100_001, dtype=float)
    for _ in range(16):
        acc += float(np.log(grid).sum()) + float(np.exp(-grid * 1e-5).sum())
    # summed in slices, so the calibration adds little to the peak memory
    big = np.exp(-1e-6 * np.arange(1 << 18, dtype=float))
    for i in range(0, big.size, 1 << 15):
        acc += math.fsum(big[i:i + (1 << 15)].tolist())
    if not math.isfinite(acc):
        raise RuntimeError("calibration computed a wrong value")
    return time.perf_counter() - t0


def speed_factor(calibrations: list[float]) -> float:
    """Factor that scales times measured among `calibrations` to the reference machine."""
    return REFERENCE_S / statistics.median(calibrations)
