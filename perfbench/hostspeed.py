"""A fixed probe of the host's current speed.

The benchmark shares a few cores of a host with other tenants, and
their load slows the same tick by up to 1.7x for minutes at a time,
longer than one run.  The probe is a fixed piece of work of the two
kinds the library's tick is made of, an interpreted loop over a dict
and NumPy calls on a small array.  It owes nothing to the library, so
a change to the library cannot move it.
Timed right after every tick, it tells how fast the host ran then, and
:func:`scale_ticks` turns each tick's wall time into its time at a fixed
reference speed.  A change to the library still shows in full: it
moves the tick and not the probe.  ``README.md`` gives the spreads
this removes.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

_DATA = np.random.default_rng(20050405).random(2000)
_KEYS = tuple(range(300))
_LOOP = 2000
_REPS = 10
#: The probe's time on that host when no other tenant loads it.  Scaled
#: times are the times the host would give at this speed.
REFERENCE_MS = 0.65
#: Probes on either side of a tick that give its host speed.
WINDOW = 10


def probe_ms() -> float:
    """Wall time of the fixed probe, in milliseconds."""
    t0 = perf_counter()
    table: dict[int, float] = {}
    for i in range(_LOOP):
        key = _KEYS[i % len(_KEYS)]
        table[key] = table.get(key, 0.0) + i * 0.5
    for _ in range(_REPS):
        np.argsort(_DATA)
        np.cumsum(_DATA)
    return (perf_counter() - t0) * 1e3


def scale(seconds: float, probes: list[float]) -> float:
    """``seconds`` at the reference speed, given probes taken around it."""
    return seconds * REFERENCE_MS / statistics.median(probes)


def scale_ticks(tick_ms: list[float], host_ms: list[float]) -> list[float]:
    """Each tick's time at the reference speed.

    ``host_ms[i]`` is the probe timed right after tick ``i``; the host
    speed of a tick is the median probe within :data:`WINDOW` ticks of
    it, so one probe hit by an interrupt does not move it.
    """
    return [
        scale(t, host_ms[max(0, i - WINDOW) : i + WINDOW + 1])
        for i, t in enumerate(tick_ms)
    ]
