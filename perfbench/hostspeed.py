"""Host-speed calibration: scale measured seconds to a reference host.

The benchmark runs on shared hosts whose speed changes by up to 2x,
sometimes for minutes and sometimes several times a second, so raw
seconds from two runs are not comparable.  A :class:`HostSpeed` takes
*samples* of a fixed calibration loop (:func:`calibrate`, which uses
no program code) about every :data:`INTERVAL_S` seconds while the
program works: at job boundaries, and while :meth:`HostSpeed.timer` is
active also from a ``SIGALRM`` interval timer, which lands inside jobs.
Each moment of program time between samples counts
``(REF_S / c) ** EXPONENT`` reference seconds, where ``c`` is the loop
time of the nearest sample (a median with its two neighbours); time
spent in samples counts zero.  A figure then reads as seconds on a host
that runs the loop in ``REF_S``.  A change to the program moves the scaled figures as it
moves the raw ones; a host that slows down slows the loop as much, and
the two cancel.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import OrderedDict
from contextlib import contextmanager

import numpy as np

#: Loop seconds on the reference host: the 2-vCPU Intel Xeon VM the
#: benchmark was built on, in its fast state.
REF_S = 0.0027
#: How much the program slows per unit of loop slowdown, in log terms.
#: In the reference host's slow state the loop ran 1.98x slower than in
#: its fast state and the program 1.57x (cold-tensor) to 1.71x
#: (explore-fig12) slower; 1.98 ** 0.75 = 1.67 maps both states to
#: within 6%, where a plain ratio over-corrects by up to 20%.
EXPONENT = 0.75
#: Seconds between samples (2.5 ms each, so they cost about 2.5%).
INTERVAL_S = 0.1

_A = list(range(0, 12000, 2))
_B = list(range(0, 12000, 3))
_KEYS = [(i * 7919) % 1500 for i in range(4000)]
_HITS = len(range(0, 12000, 6))  # multiples of both 2 and 3
_XA = np.arange(0, 40000, 2, dtype=np.int64)
_XB = np.arange(0, 40000, 3, dtype=np.int64)


class _Cursor:
    __slots__ = ("pos", "hits")

    def __init__(self):
        self.pos = 0
        self.hits = 0

    def step(self, matched: bool) -> None:
        self.pos += 1
        self.hits += matched


def calibrate() -> float:
    """Seconds of one run of the calibration loop.

    The loop mixes what the program's hot paths do: a two-pointer merge
    of sorted integer streams, an LRU over an ``OrderedDict``, method
    calls on small objects and a few numpy set operations.
    """
    start = time.perf_counter()
    a, b, i, j, cur = _A, _B, 0, 0, _Cursor()
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        cur.step(x == y)
        if x <= y:
            i += 1
        if y <= x:
            j += 1
    lru: OrderedDict[int, int] = OrderedDict()
    misses = 0
    for key in _KEYS:
        if key in lru:
            lru.move_to_end(key)
        else:
            misses += 1
            lru[key] = key
            if len(lru) > 512:
                lru.popitem(last=False)
    both = np.intersect1d(_XA, _XB, assume_unique=True)
    where = np.searchsorted(_XA, both)
    if cur.hits != _HITS or where.size != both.size or misses <= 0:
        raise AssertionError("calibration loop miscounted")
    return time.perf_counter() - start


def _scale(loop_s: float) -> float:
    """Reference seconds per program second at loop time ``loop_s``."""
    return (REF_S / loop_s) ** EXPONENT


class HostSpeed:
    """Calibration samples taken while the program works.

    Call :meth:`sample` before the first measured interval and after
    the last, :meth:`tick` at job boundaries, and wrap long stretches in
    :meth:`timer`.  Then :meth:`scaled` and :meth:`program` give the
    scaled and raw program seconds of any interval between the first
    and last sample.  Timestamps are ``time.perf_counter`` values.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end)
        self._busy = False
        self._knots: np.ndarray | None = None

    def sample(self, *_signal) -> None:
        """Run the loop once (also the ``SIGALRM`` handler)."""
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            calibrate()
            self.samples.append((start, time.perf_counter()))
            self._knots = None
        finally:
            self._busy = False

    def tick(self) -> None:
        """Sample if :data:`INTERVAL_S` has passed since the last one."""
        if time.perf_counter() - self.samples[-1][1] >= INTERVAL_S:
            self.sample()

    @contextmanager
    def timer(self):
        """Sample every :data:`INTERVAL_S` from an interval timer."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    # -- scaling -----------------------------------------------------------

    def loop_seconds(self) -> list[float]:
        """Each sample's loop time, as a median with its neighbours."""
        raw = [end - start for start, end in self.samples]
        return [statistics.median(raw[max(0, k - 1):k + 2])
                for k in range(len(raw))]

    def _build(self) -> np.ndarray:
        """Knots ``(time, raw program s, scaled program s)`` from the
        first sample's start to the last one's end.  Samples add no
        program time; the program time between two samples is split at
        its midpoint between their scales."""
        if self._knots is None:
            scales = [_scale(c) for c in self.loop_seconds()]
            rows = [(self.samples[0][0], 0.0, 0.0)]
            for k, (start, end) in enumerate(self.samples):
                if k:
                    t, raw, ref = rows[-1]
                    mid = (t + start) / 2
                    rows.append((mid, raw + mid - t,
                                 ref + (mid - t) * scales[k - 1]))
                    rows.append((start, raw + start - t,
                                 ref + (mid - t) * scales[k - 1]
                                 + (start - mid) * scales[k]))
                t, raw, ref = rows[-1]
                rows.append((end, raw, ref))
            self._knots = np.array(rows).T
        return self._knots

    def _at(self, moment: float) -> tuple[float, float]:
        t, raw, ref = self._build()
        return (float(np.interp(moment, t, raw)),
                float(np.interp(moment, t, ref)))

    def program(self, start: float, end: float) -> float:
        """Program seconds in ``[start, end]`` as measured (samples
        taken out)."""
        return self._at(end)[0] - self._at(start)[0]

    def scaled(self, start: float, end: float) -> float:
        """Program seconds in ``[start, end]`` on the reference host."""
        return self._at(end)[1] - self._at(start)[1]

    def median_scale(self) -> float:
        return _scale(statistics.median(self.loop_seconds()))

    def sample_seconds(self) -> float:
        return sum(end - start for start, end in self.samples)


__all__ = ["EXPONENT", "HostSpeed", "INTERVAL_S", "REF_S", "calibrate"]
