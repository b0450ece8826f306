"""Timings in reference seconds, steady under a CPU whose speed drifts.

On small shared virtual machines the speed of a virtual CPU can shift by
a third for seconds at a time, which swamps changes of a few per cent in
the code under test.  `CpuClock` pins the process to one CPU and, from a
background thread, times a fixed pure-Python loop every `PERIOD` seconds
with the thread's CPU clock.  An interval of wall time is then converted
to reference seconds: every stretch between two samples is scaled by
REF_LOOP_S / (the loop time there, a median over SMOOTH samples), so a
stretch during which the CPU ran the loop in REF_LOOP_S counts at face
value, and a stretch during which the CPU was half as fast counts half.

The loop runs about 0.15 ms every 50 ms while holding the interpreter
lock, a steady cost of under 1% to the code being timed.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

REF_ITERATIONS = 2000
# nominal loop time, about the median on a 2-vCPU Xeon VM with Python 3.11:
# at this speed one reference second is one wall second
REF_LOOP_S = 1.5e-4
PERIOD = 0.05
SMOOTH = 5


def _loop_seconds() -> float:
    start = time.thread_time()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i
    return time.thread_time() - start


class CpuClock:
    def __init__(self):
        self.samples = []  # (perf_counter time, loop seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="cpuclock", daemon=True)
        self._cum = None

    def __enter__(self) -> "CpuClock":
        cpus = sorted(os.sched_getaffinity(0))
        # one CPU for this process and its children, so the samples describe
        # the CPU that runs the work
        os.sched_setaffinity(0, {cpus[0]})
        self._record()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _record(self) -> None:
        loop = _loop_seconds()
        self.samples.append((time.perf_counter(), loop))

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD):
            self._record()

    def ref_seconds(self, start: float, end: float) -> float:
        """Reference seconds between two `time.perf_counter()` readings
        taken while the clock ran; call after the clock has stopped."""
        if not self._stop.is_set():
            raise RuntimeError("convert timings after the clock has stopped")
        if self._cum is None:
            self._times = [t for t, _ in self.samples]
            loops = [loop for _, loop in self.samples]
            # a centred median over SMOOTH samples damps the jitter of single
            # loop timings; the speed levels last far longer than the window
            half = SMOOTH // 2
            self._speeds = [
                REF_LOOP_S / statistics.median(loops[max(0, k - half) : k + half + 1])
                for k in range(len(loops))
            ]
            cum = [0.0]
            for k in range(1, len(self._times)):
                cum.append(cum[-1] + self._speeds[k - 1] * (self._times[k] - self._times[k - 1]))
            self._cum = cum
        return self._integral(end) - self._integral(start)

    def _integral(self, x: float) -> float:
        # step function: each sample's speed holds until the next sample
        k = max(bisect.bisect_right(self._times, x) - 1, 0)
        return self._cum[k] + self._speeds[k] * (x - self._times[k])
