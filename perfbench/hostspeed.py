"""A fixed reference kernel that tracks how fast the host runs right now.

The benchmark's host is a VM on a shared machine whose speed switches,
within seconds, between a fast state and one about 1.8 times slower, and
whose share of time in each state drifts over minutes. Every raw time of
a run inherits that drift. `Probe` times a fixed kernel, short and of the
same kind as the program's client-step arithmetic (small vector operations
driven from a Python loop), at points spread through the run. It imports
nothing from fedminimax, so a change to the program never moves it.

A time measured next to probes is adjusted to the reference speed by
multiplying it by `NOMINAL_S / mean probe time`: on a host that runs the
kernel in `NOMINAL_S` the adjusted time equals the raw time.
"""

from __future__ import annotations

import time

import numpy as np

# One kernel call in the fast state of a 2.1 GHz Xeon VM (Python 3.11, numpy 2.4).
# A fixed constant: it sets the unit of adjusted times, never measured.
NOMINAL_S = 0.0006
CALLS_PER_SAMPLE = 8

_DIM = 20
_A = np.eye(_DIM) * 2.0 + np.full((_DIM, _DIM), 0.01)
_DIAG = np.linspace(1.0, 2.0, _DIM)


def _step(x: np.ndarray, m: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    g = _A @ x - 1.0
    if np.any(_DIAG <= 0.0):
        raise ValueError("nonpositive diagonal")
    d = g / _DIAG
    if not np.all(np.isfinite(d)):
        raise FloatingPointError("non-finite step")
    m = 0.9 * m + 0.1 * d
    return x - (0.01 / (1 + t)) * m, m


def kernel() -> float:
    """One call of the reference kernel; returns a value so no work is skipped."""
    x = np.zeros(_DIM)
    m = np.zeros(_DIM)
    for t in range(60):
        x, m = _step(x, m, t)
    return float(x @ x)


class Probe:
    """Times the reference kernel on demand and keeps every sample."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        kernel()  # first call pays numpy's lazy set-up; not a sample

    def sample(self) -> float:
        """Time CALLS_PER_SAMPLE kernel calls; return and keep seconds per call."""
        t0 = time.perf_counter()
        for _ in range(CALLS_PER_SAMPLE):
            kernel()
        per_call = (time.perf_counter() - t0) / CALLS_PER_SAMPLE
        self.samples.append(per_call)
        return per_call


def speed_factor(probe_times: list[float]) -> float:
    """Factor that turns raw seconds measured among these probes into
    reference-speed seconds: NOMINAL_S over their mean."""
    return NOMINAL_S * len(probe_times) / sum(probe_times)
