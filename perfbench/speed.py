"""Machine-speed probe: scales measured times to a fixed reference speed.

On a shared 2-core Xeon VM (Python 3.11.7) a vCPU ran at two speeds that
differ by about 1.65x and switched every few seconds: a fixed pure-Python
kernel took 1.7 ms or 2.8 ms, back and forth, over one minute.  Raw wall
times of identical runs then spread by 10 to 40 percent.  The probe runs one
of three small benchmark-owned kernels (complex floats, small objects, mixed
bigint/numpy) every PERIOD seconds from a SIGALRM handler, and next to each
timed interval.  Each sample gives the momentary speed KREF / duration; an
interval's scaled time is its wall time, minus the probe's own time, times
the mean speed of the samples taken during it and next to it.

A sample runs its kernel twice with the garbage collector paused and times
the second run, so that it measures the machine rather than the cache and
heap state the library left behind.  KREF holds the kernels' median times in
a tight loop on that VM (numpy 2.4.6); scaled times read as seconds at that
speed.  The kernels do not use siegelcert, so no library change moves them.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

PERIOD = 0.015
_BIG = 7 ** 500


def _complex_kernel():
    z, acc = 0.3 + 0.4j, 0j
    for _ in range(1500):
        z = z * (0.999 + 0.001j) + 0.001
        acc += z / (1.5 + z)


@dataclass(frozen=True)
class _Ball:
    c: complex
    r: float

    def __mul__(self, o):
        return _Ball(self.c * o.c, abs(self.c) * o.r + abs(o.c) * self.r + self.r * o.r)

    def __add__(self, o):
        return _Ball(self.c + o.c, self.r + o.r)


def _object_kernel():
    b, s, m = _Ball(0.3 + 0.4j, 1e-12), _Ball(0j, 0.0), _Ball(0.999 + 0.001j, 1e-16)
    for _ in range(250):
        b = b * m
        s = s + b


def _mixed_kernel():
    z, acc = 0.3 + 0.4j, 0j
    for _ in range(300):
        z = z * (0.999 + 0.001j) + 0.001
        acc += z / (1.5 + z)
    x = 3 ** 400
    for i in range(30):
        x = (x * 12345678901234567) % _BIG + i
    a = np.arange(64, dtype=np.complex128)
    for _ in range(20):
        a = a * (1 + 1e-9j) - a.sum() * 1e-12


KERNELS = (_complex_kernel, _object_kernel, _mixed_kernel)
KREF = (0.31e-3, 0.41e-3, 0.134e-3)   # seconds, at the reference speed


class SpeedProbe:
    """Speed samples as (end time, duration, speed); speed 1.0 is reference."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False
        self._old = None

    def sample(self, *_):
        if self._busy:
            return
        self._busy = True
        k = len(self.samples) % len(KERNELS)
        gc_was_on = gc.isenabled()
        gc.disable()            # a collection would time the library's garbage
        t0 = time.perf_counter()
        KERNELS[k]()            # warms caches after the library's work
        t1 = time.perf_counter()
        KERNELS[k]()            # timed
        t2 = time.perf_counter()
        if gc_was_on:
            gc.enable()
        self.samples.append((t2, t2 - t0, KREF[k] / (t2 - t1)))
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def around(self, before: int, after: int, pad: int) -> tuple[float, float]:
        """Probe time inside samples[before:after] and the mean speed over
        them plus `pad` samples on each side."""
        window = self.samples[max(0, before - pad):after + pad]
        inside = self.samples[before:after]
        return (sum(s[1] for s in inside),
                statistics.fmean(s[2] for s in window))


def timed(probe: SpeedProbe | None, fn, pad: int = 1):
    """Run fn; returns (seconds, result, error).

    With a probe, fn runs between `pad` samples on each side, the probe's
    own time inside the interval is taken out, and the rest is scaled to the
    reference speed.  Without one, the seconds are plain wall time."""
    for _ in range(pad if probe else 0):
        probe.sample()
    before = len(probe.samples) if probe else 0
    t0 = time.perf_counter()
    result = error = None
    try:
        result = fn()
    except Exception as exc:  # the caller records the outcome
        error = exc
    t1 = time.perf_counter()
    if probe is None:
        return t1 - t0, result, error
    after = len(probe.samples)
    for _ in range(pad):
        probe.sample()
    probe_time, speed = probe.around(before, after, pad)
    return (t1 - t0 - probe_time) * speed, result, error
