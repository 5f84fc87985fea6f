"""Host-speed meter: converts wall-clock spans into reference seconds.

The benchmark host drifts between a fast state and a state about 1.6x
slower, in spells of 0.1-4 s, on both CPUs at once (see README.md).
Whole-pass wall-clock times therefore do not repeat, and a reference
loop on another CPU or thread cannot correct them.

The meter samples host speed *in the benchmark's own thread*: a
``SIGALRM`` interval timer fires every ``PERIOD_S`` seconds and its
handler times a fixed pure-Python reference.  A span's reference
seconds are its wall time with each slice between two samples scaled
by ``(REFERENCE_S / speed) ** SENSITIVITY``, where ``speed`` is the
median reference time of the samples around the slice: about the time
the span would take on a host that runs the reference in
``REFERENCE_S``.  The reference's own time is excluded.  The program is untouched: no wrapper is installed,
and the handler runs between bytecodes of whatever the program is
doing.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import struct
import time
from typing import List, Optional

#: Samples per second (100 Hz: 10 samples per 0.1 s spell, the
#: shortest drift spell seen).
PERIOD_S = 0.01
#: Samples in the running-median window that defines a slice's speed.
WINDOW = 5
#: Iterations of the reference loop (25-45 us in all on the benchmark
#: host, so sampling costs about 0.3%).
REF_LOOPS = 50
#: The reference time spans are normalized to: about the reference's
#: time in the host's fast state, so reference seconds read close to
#: fast-state wall seconds.  A unit, not a tuning knob: changing it
#: rescales every timing by the same factor.
REFERENCE_S = 25e-6
#: How strongly the program's speed follows the reference's: a slice
#: is scaled by ``(REFERENCE_S / speed) ** SENSITIVITY``.  Drift slows
#: the small reference more than the program.  Over 4-6 runs of each
#: workload on the benchmark host, the cross-run spread of pass times
#: was smallest at 0.7-0.9 depending on the workload; 0.8 keeps every
#: workload under 5% (1.0 left the figure grid at 9%).
SENSITIVITY = 0.8


def _scale(speed: float) -> float:
    return (REFERENCE_S / speed) ** SENSITIVITY


def _step(x: float) -> float:
    return x * 1.0001 + 0.5


class _Tick:
    __slots__ = ("count", "recent")

    def __init__(self) -> None:
        self.count = 0
        self.recent = [0, 0, 0, 0]


class HostMeter:
    """In-thread reference sampler; see the module docstring."""

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.refs: List[float] = []
        self._scratch: dict = {}
        self._tick = _Tick()
        self._speeds: Optional[List[float]] = None
        self._previous = None

    def _reference(self) -> int:
        # A mix of the interpreter work the program does: dict updates,
        # calls, float bit patterns (the checksums) and attribute and
        # list updates.  How strongly host drift slows code depends on
        # the code; a mix follows every workload about equally well.
        scratch, pack, unpack = self._scratch, struct.pack, struct.unpack
        total = 0
        for i in range(REF_LOOPS):
            scratch[i & 7] = i
            total += scratch.get(i & 3, 0) + len(scratch)
            total ^= unpack("<Q", pack("<d", _step(i + 0.5)))[0]
            self._tick.count += i
            self._tick.recent.append(i)
            self._tick.recent.pop(0)
        return total

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._reference()
        self.stamps.append(start)
        self.refs.append(time.perf_counter() - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        half = WINDOW // 2
        self._speeds = [
            statistics.median(self.refs[max(0, i - half): i + half + 1])
            for i in range(len(self.refs))
        ]

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall-clock span ``[start, end]``.

        Call after :meth:`stop`.
        """
        speeds, stamps, refs = self._speeds, self.stamps, self.refs
        if not speeds:
            raise RuntimeError("the host meter took no sample")
        i = bisect.bisect_left(stamps, start)
        total, cursor = 0.0, start
        while i < len(stamps) and stamps[i] < end:
            total += (stamps[i] - cursor) * _scale(speeds[i])
            cursor = stamps[i] + refs[i]
            i += 1
        tail = speeds[min(i, len(stamps) - 1)]
        return total + max(0.0, end - cursor) * _scale(tail)
