"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared VM the same code runs up to about 1.5 times slower for
minutes at a time, because other tenants load the same cores; CPU time
slows as much as wall time, so it is not time stolen from the process
but slower execution. No statistic taken within one run removes a slow
stretch that outlasts the run. The benchmark therefore runs this kernel
between the timed operations and scales each operation's time by
``(NOMINAL_S / reference time) ** exponent``: the result reads as
seconds on the machine in its nominal state, and it stays put when the
whole machine slows. The exponent says how strongly a workload's time
follows the kernel's; it is set per workload in ``workloads.py``.

The kernel does not touch qdosc, so no change to qdosc moves it. It
mixes the three kinds of work qdosc's workloads do: an interpreted
Python loop of float and dict operations, small and large complex matrix
products, and a large vectorised complex exponential.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's median time on a 2-vCPU x86-64 VM (OpenBLAS, one
# thread). Any fixed value would do: it only sets the unit.
NOMINAL_S = 0.050

_RNG = np.random.default_rng(0)
_SMALL = (_RNG.standard_normal((64, 64)) + 1j * _RNG.standard_normal((64, 64))) / 8.0
_LARGE = (_RNG.standard_normal((256, 256)) + 1j * _RNG.standard_normal((256, 256))) / 16.0
_ROWS = _RNG.standard_normal(20_000)
_COLS = _RNG.standard_normal(16)


def _kernel() -> float:
    acc = 0.0
    table = {}
    for i in range(30_000):
        acc += (i * 0.5) ** 2 % 7.0
        table[i % 97] = acc
    x = _SMALL
    for _ in range(130):
        x = _SMALL @ x
        x /= np.abs(x).max()
    y = _LARGE
    for _ in range(4):
        y = _LARGE @ y
    big = np.exp(1j * np.outer(_ROWS, _COLS)).sum()
    return acc + abs(x[0, 0]) + abs(y[0, 0]) + abs(big)


def reference_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scale(reference: float, exponent: float) -> float:
    """Factor that turns a time measured beside ``reference`` into
    nominal seconds, for work whose time goes as the kernel's to the
    power ``exponent``."""
    return (NOMINAL_S / reference) ** exponent
