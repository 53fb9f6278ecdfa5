"""Correct timings for the speed of a shared processor.

On a host shared with other tenants, the same Python code runs up to about
twice as slow for seconds or minutes at a time; between runs of the same
pass the raw time moved by a third of its median. A Sampler thread
therefore times a fixed piece of pure Python, the reference, every PERIOD
seconds while the workload runs. A timing is then rescaled to reference
speed: multiplied by the mean over the samples taken during it of
NOMINAL_S / (sample's duration). On a processor that runs the reference in
NOMINAL_S, rescaled and raw times agree.

The reference mixes integer arithmetic with tuple building and dict
updates, as permstat does; each kind alone over- or under-corrects. It
shares no code with permstat, so changes to permstat do not move it.
"""
from __future__ import annotations

import itertools
import os
import statistics
import threading
import time

PERIOD = 0.05
NOMINAL_S = 0.0015


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and its children on one processor,
    so that the reference is timed where the workload runs."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference() -> float:
    """Seconds taken by one fixed piece of pure Python."""
    t0 = time.perf_counter()
    hist: dict = {}
    for q in itertools.permutations((1, 2, 3, 4, 5, 6)):
        key = tuple(i for i in range(1, 6) if q[i - 1] > q[i])
        hist[key] = hist.get(key, 0) + 1
    total = 0
    for i in range(10_000):
        total += i * i % 7
    return time.perf_counter() - t0


def speed(samples) -> float:
    """Mean speed relative to nominal over reference timings."""
    return statistics.fmean(NOMINAL_S / s for s in samples)


class Sampler:
    """Times the reference every PERIOD seconds on a background thread,
    from ``with`` entry to exit."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD):
            self.samples.append(reference())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def mark(self) -> int:
        return len(self.samples)

    def rescale(self, seconds: float, mark: int) -> float:
        """seconds, measured since mark, rescaled to reference speed. A span
        too short to hold a sample is rescaled by one taken now."""
        samples = self.samples[mark:] or [reference()]
        return seconds * speed(samples)
