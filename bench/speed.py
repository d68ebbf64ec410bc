"""Host-speed probe: a fixed kernel timed between slots.

The benchmark runs on shared machines whose speed drifts: on a 2-vCPU VM
shared with other tenants, one table1 day took anywhere between 3.7 and
8.7 s of wall time within minutes, although the work is identical.  A slot's
wall time divided by the time of a fixed kernel run right next to it cancels
that drift and keeps the cost of the program itself.

Reported times are therefore in reference seconds: a measured interval times
``REFERENCE_S / kernel time``, i.e. the interval expressed in kernel runs, one
kernel run counting ``REFERENCE_S``.  The kernel mixes the same kind of work
as the simulator (small numpy array operations driven by Python loops and
float arithmetic) and must never change, or old and new figures stop being
comparable.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 1e-3
REPS = 4

_rng = np.random.default_rng(0)
_WEIGHT = _rng.random((4, 6)) + 0.5
_MASK = (np.arange(6)[None, :] < np.array([3, 6, 2, 5])[:, None]).astype(float)


def kernel() -> float:
    """Forty steps of a small water-filling-like update; returns a checksum."""
    total = 0.0
    mu = np.zeros(4)
    for _ in range(40):
        q = _WEIGHT + mu[:, None]
        p = np.clip(np.where(q > 0, 10.0 / q - 1.0, np.inf), 0.0, 22.0)
        e = np.einsum("ij,ij->i", p, _MASK)
        mu = np.where(e > 10.0, mu + 0.01, mu - 0.01)
        total += float(e.sum()) + sum(x * 0.5 for x in (1.0, 2.0, 3.0))
    return total


def probe() -> float:
    """Mean seconds of one kernel run, over ``REPS`` back-to-back runs."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times)


def to_reference(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_S / kernel_s
