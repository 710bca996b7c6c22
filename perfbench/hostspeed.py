"""A fixed reference job that measures how fast the host runs right now.

On a shared host the same code runs up to twice as slow in one minute as
in the next, while process CPU time tracks wall time: the CPU itself is
slower, not descheduled. The harness runs this job around every measured
stretch and divides each time by how much slower than nominal the job ran
nearby, so a metric compares program speed, not host weather.

The job touches nothing of the package. Its mix was chosen by regressing
program times on candidate jobs over a minute of drifting host speed
(log-log slopes, 0.5 s windows): a plain-numpy encoder layer on 12 x 32
rows tracks one-scene inference and training steps with slope 1.0-1.1, a
Python integer loop 1.1-1.3, float text formatting and parsing 0.8-0.9;
together they track all three program paths, dataset saving included, with
slope near 1. A tight numpy loop alone read 0.6-0.7 and over-corrected.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median seconds of one probe() on the reference host (2 shared vCPUs,
# numpy 2.4.6 on OpenBLAS 0.3.31 with one thread) in its fast stretches.
NOMINAL_S = 1.0e-3

_X = np.linspace(-1.0, 1.0, 12 * 32).reshape(12, 32)
_W = np.linspace(-0.3, 0.3, 32 * 32).reshape(32, 32)
_W1 = np.linspace(-0.2, 0.2, 32 * 64).reshape(32, 64)
_W2 = np.linspace(-0.2, 0.2, 64 * 32).reshape(64, 32)


def _layer_norm(h):
    mu = h.mean(axis=1, keepdims=True)
    return (h - mu) / np.sqrt(((h - mu) ** 2).mean(axis=1, keepdims=True) + 1e-5)


def _encoder_layer(x):
    q, k, v = x @ _W, x @ _W.T, x @ _W
    s = q @ k.T / np.sqrt(32.0)
    e = np.exp(s - s.max(axis=1, keepdims=True))
    h = _layer_norm(x + (e / e.sum(axis=1, keepdims=True)) @ v)
    return _layer_norm(h + np.maximum(h @ _W1, 0.0) @ _W2)


def probe() -> float:
    """Seconds taken by one run of the reference job."""
    t0 = perf_counter()
    pooled = _encoder_layer(_X).max(axis=0)
    acc = 0
    for i in range(6000):
        acc += i * i
    text = " ".join(format(v, ".17g") for v in _X.ravel())
    back = np.array([float(c) for c in text.split()])
    if not (np.isfinite(pooled).all() and np.array_equal(back, _X.ravel())
            and acc == 71982001000):
        raise AssertionError("reference job computed a wrong result")
    return perf_counter() - t0


def slowdown() -> float:
    """How much slower than nominal the host runs here: the median of seven
    jobs, after one that warms the caches, over NOMINAL_S."""
    probe()
    return sorted(probe() for _ in range(7))[3] / NOMINAL_S
