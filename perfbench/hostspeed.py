"""The host's speed, measured with a fixed reference computation.

On a shared host the same code runs up to 1.7 times slower while the
neighbours are busy, and a slow stretch can last longer than a whole run,
so neither the median nor the fastest of a run's rounds is steady from
one run to the next.  The benchmark therefore brackets every timed unit
with a reference computation of its own (a pure-Python loop and a loop
of small numpy products, five times over, about 8 ms in all) and divides
the unit's times by the host's slowdown: the reference's measured time
over its nominal time.  Nothing under ``src/`` runs in the reference, so a change
to the package cannot move it.

The nominal times are the reference's time in the quiet stretches of a
2-core host, so a rescaled time reads as the wall time of a quiet host.
"""

from __future__ import annotations

import time

import numpy as np

CHUNKS = 5                 # slowdown() is the median over this many
NOMINAL_PY_S = 0.00084     # reference_py() on a quiet host
NOMINAL_NP_S = 0.00074     # reference_np() on a quiet host

_MATRIX = np.random.default_rng(0).random((8, 8))


def reference_py() -> int:
    total = 0
    for i in range(12_000):
        total += i * i % 7
    return total


def reference_np() -> float:
    x = _MATRIX
    for _ in range(320):
        x = np.tanh(x @ _MATRIX) + 0.1
    return float(x[0, 0])


def slowdown() -> float:
    """Measured over nominal time of the reference: 1.0 at the nominal
    speed, 1.5 when the host runs 1.5x slower.  Each of CHUNKS runs of
    both halves gives the mean of their two ratios; the median of the
    runs ignores one cut short by an interrupt."""
    ratios = []
    for _ in range(CHUNKS):
        t0 = time.perf_counter()
        reference_py()
        t1 = time.perf_counter()
        reference_np()
        t2 = time.perf_counter()
        ratios.append(0.5 * ((t1 - t0) / NOMINAL_PY_S
                             + (t2 - t1) / NOMINAL_NP_S))
    ratios.sort()
    return ratios[CHUNKS // 2]
