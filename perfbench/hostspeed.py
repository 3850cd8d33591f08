"""Host-speed sampling: scales measured host times to a reference host speed.

A shared host's speed drifts.  Measured on a 2-vCPU container, a fixed
workload ran up to 1.6x slower for stretches of seconds to minutes, so raw
medians of two runs minutes apart differed by more than any useful bound.

While a timed phase runs, a timer signal interrupts it every
``INTERVAL_S`` and times one fixed chunk of Python and small-numpy work --
the same kind of work the simulator does -- in the measured thread itself.
The phase's host time is its wall time minus the time spent in chunks,
multiplied by ``NOMINAL_CHUNK_S`` over the mean chunk time: it reads as the
seconds the phase would take on a host where the chunk takes
``NOMINAL_CHUNK_S``.  A slower simulator still reads slower; a slower host
does not.  The chunk is benchmark code and calls nothing in the simulator,
so no change to the simulator can move it, and the interruptions leave the
simulation itself untouched (every rep's digest is checked).
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from typing import Iterator, List

import numpy as np

#: The chunk's median time on the host the bounds were fitted on (2-vCPU
#: Intel Xeon container).  Only ratios matter; the value keeps the scaled
#: times near the raw ones.
NOMINAL_CHUNK_S = 0.0025
#: One chunk every 50 ms costs about 5% of a phase; the chunk time is
#: subtracted from the phase.
INTERVAL_S = 0.05


def _chunk() -> int:
    table = {}
    for index in range(12000):
        table[index % 397] = table.get(index % 397, 0) + index
    values = [float(index) * 0.5 for index in range(6000)]
    array = np.arange(64.0)
    for _ in range(300):
        array = array * 1.0001 + 1.0
    return len(values) + len(table)


def _time_chunk() -> float:
    start = time.perf_counter()
    _chunk()
    return time.perf_counter() - start


def chunk_seconds(chunks: int = 25) -> float:
    """Median chunk time now, from ``chunks`` back-to-back chunks."""
    return statistics.median(_time_chunk() for _ in range(chunks))


class Phase:
    """Host time of one timed phase."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Wall time as the clock read it, chunks included.
        self.wall_s = 0.0
        #: Time spent in chunks inside the phase.
        self.chunks_s = 0.0

    @property
    def scale(self) -> float:
        return NOMINAL_CHUNK_S / statistics.mean(self.samples)

    @property
    def seconds(self) -> float:
        """Wall time minus chunks, scaled to the reference host speed."""
        return (self.wall_s - self.chunks_s) * self.scale


class Sampler:
    """Times chunks inside timed phases; one per process (it owns SIGALRM)."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sampling = False
        # Installed once and never restored: a SIGALRM still pending after a
        # phase ends must find a no-op handler, not the default (terminate).
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self._sampling:
            self._samples.append(_time_chunk())

    @contextlib.contextmanager
    def phase(self) -> Iterator[Phase]:
        """Time the ``with`` block; the first chunk runs as it starts."""
        phase = Phase()
        self._samples = phase.samples
        self._sampling = True
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 1e-6, INTERVAL_S)
        try:
            yield phase
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            self._sampling = False
            phase.wall_s = time.perf_counter() - start
            phase.chunks_s = sum(phase.samples)
            if not phase.samples:  # a phase too short for the first tick
                phase.samples.append(_time_chunk())
