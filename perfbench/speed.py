"""Host-speed calibration.

A shared host can change speed by up to 2x from one tenth of a second to the
next: on the 2-core host this benchmark was defined on, one session took
5.7 ms in one 2-s window and 11.4 ms in the next, in CPU time as well as wall
time, and within a window by up to a fifth from one operation to the next. A
20-s run then reports whatever mix of fast and slow phases it met. To keep
that mix out of the figures, a fixed stdlib loop, doing the same kind of work
as kimap (SHA-256 of short messages and big-integer arithmetic), is timed
right before every operation and every warm-up step. Each measured interval
is scaled by ``REF_NS / loop time``, with the loop time taken as the median of
the readings that bound it: the last one before it, any inside it and the
first one after it. A long interval, such as a set-up, is scaled piece by
piece between the readings inside it. The figures are then in units of the
reference speed, at which the loop takes :data:`REF_NS` (about the host's
fast phase). Over six 5-s fault-mix runs, the quartile spread of the session
p95 was 0.071 raw, 0.061 scaled by the median reading within 25 ms (one
reading every 10 ms) and 0.030 scaled by the bounding readings; over five
12-s fleet-steady runs it was 0.25, 0.030 and 0.020."""

from __future__ import annotations

import hashlib
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right

REF_NS = 120_000
_MASK = (1 << 64) - 1


def calibration_loop() -> int:
    h = 0
    for i in range(100):
        v = int.from_bytes(hashlib.sha256(b"perfbench-calibration" + i.to_bytes(4, "big")).digest(),
                           "big")
        h ^= (v >> (i & 31)) & _MASK
        h += sum((v & 0xFF, v >> 248, i))
    return h


class Speed:
    """The host's speed over time, from timings of :func:`calibration_loop`."""

    def __init__(self) -> None:
        self.stamps = array("q")    # mid-point of each reading
        self.readings = array("q")  # loop time in ns
        self.calibrate()

    def calibrate(self) -> None:
        t0 = time.perf_counter_ns()
        calibration_loop()
        t1 = time.perf_counter_ns()
        self.stamps.append((t0 + t1) // 2)
        self.readings.append(t1 - t0)

    def scale(self, start_ns: int, end_ns: int) -> float:
        """The interval's length in ns at the reference speed. Readings
        taken inside it (during a warm-up) split it into pieces and their
        own time is left out; each piece is scaled by the median of the
        readings that bound it."""
        i = bisect_right(self.stamps, start_ns)
        j = bisect_left(self.stamps, end_ns)
        cuts = [start_ns, *self.stamps[i:j], end_ns]
        halves = [0, *(r / 2 for r in self.readings[i:j]), 0]
        return sum((b - a - halves[k] - halves[k + 1]) * REF_NS / self._local(a, b)
                   for k, (a, b) in enumerate(zip(cuts, cuts[1:])))

    def _local(self, start_ns: int, end_ns: int) -> float:
        """Median of the last reading at or before ``start_ns``, any inside
        and the first at or after ``end_ns``."""
        lo = max(0, bisect_right(self.stamps, start_ns) - 1)
        hi = bisect_left(self.stamps, end_ns) + 1
        return statistics.median(self.readings[lo:hi])
