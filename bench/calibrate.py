"""Speed samples: a fixed computation that gauges the machine's speed.

The benchmark runs on a few cores of a shared host.  Other work on the host
slows a core down by up to 2x, in stretches from a tenth of a second to
minutes, and one core independently of the other, so the same sweep can
take twice as long in one run as in the next.  To take that out of the
figures, a run times its calls inside a ``Sampler``: the process is pinned
to one CPU, and a thread wakes every ``EVERY_S`` to run one sample of fixed
work and record when it ran and the CPU time it took.  The run scales the
time of each call by ``REF_SAMPLE_S / mean time of the samples taken
during the call`` (at least ``MIN_SAMPLES``, the nearest ones for a short
call): the result is the time the call would take on a machine that runs
one sample in ``REF_SAMPLE_S``.

A sample mixes what the program does: small numpy array arithmetic, logs
and exponentials in a Python loop (Blahut-Arimoto on a fixed 6x6 channel)
and a scipy ``brentq`` root.  It does not use the package, so a change to
the program cannot change the yardstick.  Sampling costs the timed calls
a few per cent, the same on every commit.
"""
from __future__ import annotations

import bisect
import os
import threading
import time

import numpy as np
from scipy.optimize import brentq

REF_SAMPLE_S = 0.002  # the reference machine runs one sample in 2 ms
EVERY_S = 0.05
MIN_SAMPLES = 10
_CHANNEL = np.random.default_rng(7).dirichlet(np.ones(6), size=6)


def _capacity(w: np.ndarray, iters: int = 60) -> float:
    p = np.full(w.shape[0], 1.0 / w.shape[0])
    for _ in range(iters):
        d = np.sum(w * np.log(w / (p @ w)), axis=1)
        p = p * np.exp(d)
        p /= p.sum()
    return float(p @ d)


def one_sample() -> float:
    """Run one sample of fixed work; return the CPU seconds it took."""
    start = time.thread_time()
    for _ in range(2):
        c = _capacity(_CHANNEL)
        brentq(lambda t: np.log1p(t) - c, 0.0, 100.0)
    return time.thread_time() - start


def scale(samples: list[float]) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return REF_SAMPLE_S * len(samples) / sum(samples)


class Sampler:
    """Pin the process to one CPU and sample its speed while inside.

    ``starts`` holds the ``perf_counter`` time each sample began and
    ``samples`` the CPU seconds it took.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._cpus = os.sched_getaffinity(0)

    def _run(self):
        while not self._stop.wait(EVERY_S):
            self.starts.append(time.perf_counter())
            self.samples.append(one_sample())

    def __enter__(self) -> "Sampler":
        os.sched_setaffinity(0, {min(self._cpus)})
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._cpus)
        if not self.samples:
            self.starts.append(time.perf_counter())
            self.samples.append(one_sample())

    def scale(self, start: float, end: float) -> float:
        """Scale factor for work done between ``start`` and ``end``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2,
                            len(self.samples) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return scale(self.samples[lo:hi])
