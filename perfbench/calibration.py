"""Machine-speed calibration: short bursts of fixed Python work on a timer.

The shared host this benchmark was written on swings in speed by up to 1.8x
over seconds to minutes: the same child ran ``report_all`` in 10.0 s and in
18.0 s within ten minutes, with no load of its own.  Every qpart workload is
single-threaded, CPU-bound Python, so it slows by the same factor as any
other Python code running at that moment.

While a workload runs, ``Calibrator`` interrupts it every ``INTERVAL_S`` of
wall time (``SIGALRM``) and times one ``burst()``: fixed work that does not
touch qpart, so no change to qpart can change it.  The mean burst time over
the run, against ``REF_BURST_S``, is the slowdown of the machine during that
very run.  A time scaled by ``scale()`` reads as seconds at reference speed:

    ref_s = (wall_s - time spent in bursts) * REF_BURST_S / mean burst time

Over 26 fresh children of the three workloads in one noisy stretch, this
cut the coefficient of variation of the time from 7-12 % to 1.2-2.9 %.
The raw times are still reported, in the details line of every run.
"""

from __future__ import annotations

import gc
import signal
import time

# Duration of one burst on the machine the benchmark was written on (Intel
# Xeon at 2.1 GHz, CPython 3.11.7), in a quiet stretch.  Fixed for good: it
# is the unit that makes scaled times comparable across runs and commits.
REF_BURST_S = 1.6e-3
INTERVAL_S = 0.1


def _distinct(total: int, hi: int):
    if total == 0:
        yield ()
        return
    for v in range(min(hi, total), 0, -1):
        if v * (v + 1) // 2 < total:
            return
        for rest in _distinct(total - v, v - 1):
            yield (v,) + rest


class _Parts:
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        if any(b > a for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be weakly decreasing")
        self.parts = parts


def _work() -> int:
    """One burst of fixed work, in three parts that mirror the workloads.

    Contention on the host slows different code by different factors, so
    one kind of loop tracks some workloads better than others.  Measured
    over fresh children of all three workloads, this mix tracked them more
    evenly than any of its parts alone.
    """
    # Interpreter dispatch over small tuples and a dict.
    acc = 0
    d: dict[int, int] = {}
    for i in range(2500):
        t = (i, i * 3 % 7, i & 15)
        d[t[1]] = d.get(t[1], 0) + t[0]
        acc += len(t) + (i ^ acc) % 5
    # Recursive generators building tuples, wrapped in small objects, as
    # the enumerators and bijections do.
    for p in _distinct(30, 30):
        acc += len(_Parts(p).parts)
    # In-place factor loops over 61-bit coefficients, as the series kernels.
    c = [(1 << 60) + 11 * i for i in range(600)]
    for m in (1, 2, 3, 4, 5, 6, 7):
        for i in range(len(c) - 1, m - 1, -1):
            c[i] -= c[i - m] >> 3
    return acc + c[-1]


def burst() -> float:
    """Run ``_work`` once with the collector paused; return its seconds."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    _work()
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class Calibrator:
    """Times a burst on every timer tick between ``start()`` and ``stop()``.

    ``on_burst(start, end)`` is called after each burst, so that a tracer
    can take the burst's time out of the span it interrupted.
    """

    def __init__(self, on_burst=None) -> None:
        self.bursts: list[float] = []
        self._on_burst = on_burst
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.bursts.append(burst())
        if self._on_burst is not None:
            self._on_burst(start, time.perf_counter())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe(self, count: int) -> None:
        """Run ``count`` bursts back to back, outside any workload."""
        self.bursts.extend(burst() for _ in range(count))

    @property
    def spent_s(self) -> float:
        return sum(self.bursts)

    def scale(self) -> float:
        """Factor from seconds on this machine now to reference seconds."""
        return REF_BURST_S * len(self.bursts) / self.spent_s
