"""A fixed reference loop that tells how fast the host runs right now.

On a shared host the same code runs up to 40% slower from one minute to
the next, and by 20% from one second to the next; that drift moves every
wall-clock time alike.  The benchmark times this loop every ``EVERY_S``
seconds through a pass, and in every set-up interpreter, and reports
each timing scaled to a host on which the loop takes ``NOMINAL_S``:

    reported = measured * NOMINAL_S / median(loop times near it)

"Near" is within ``WINDOW_S`` of the timed interval, samples inside it
included, so a request is scaled by the speed of the host while it ran.
In a pass the samples come from an interval timer (SIGALRM), so they
also fall inside long requests (the cold Bernoulli table takes 10 s);
the time they take is left out of every timing (see ``Clock.now``).
The loop uses the standard library only, never lihex, so no change to
the library can move it.  Its mix is the library's: a Python-level loop
of modular powers (the spigot's term loop) and multiplications of
19k-bit integers (the mp layer).  ``NOMINAL_S`` is a constant of the
benchmark; changing it rescales every timing and breaks comparison with
earlier runs.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

NOMINAL_S = 0.007
EVERY_S = 0.1
WINDOW_S = 0.25
_MASK = (1 << 19000) - 1


def _loop() -> int:
    x = 0
    for i in range(1, 6000):
        x += pow(16, i, 2 * i + 1)
    a = 3 ** 12000
    for _ in range(18):
        a = (a * a) & _MASK
    return x ^ a


def sample() -> float:
    """Seconds one pass of the reference loop takes."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """Factor that turns measured times into nominal ones, for samples
    taken around them."""
    return NOMINAL_S / statistics.median(samples)


class Clock:
    """Reference samples taken through a pass, on an interval timer.

    ``now()`` is ``perf_counter()`` minus the time spent in samples, so
    intervals measured with it leave the samples out.  Use as a context
    manager around the timed loop; the timer is off outside it.
    """

    def __init__(self):
        self.at: list[float] = []        # sample starts on now(), ascending
        self.took: list[float] = []
        self.paused = 0.0
        self._sampling = False

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _sample(self, *_) -> None:
        if self._sampling:       # an alarm that fell due inside a sample
            return
        self._sampling = True
        t0 = time.perf_counter()
        self.at.append(t0 - self.paused)
        self.took.append(sample())
        self.paused += time.perf_counter() - t0
        self._sampling = False

    def __enter__(self) -> "Clock":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def nominal(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 (on ``now()``) at nominal host speed."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        return (t1 - t0) * scale(self.took[lo:hi] or self.took)
