"""Machine speed, measured by a fixed calibration loop run during the work.

The benchmark shares a few virtual CPUs with other machines' work, and how
fast they run Python moves by tens of percent within seconds and between
minutes, in CPU time as well as in wall time (a busy neighbour on the same
core or cache slows the instructions themselves).  So the benchmark times
each analysis in CPU time and measures the machine's speed while the
analysis runs: a CPU-time interval timer (SIGPROF every TICK_S of CPU) runs
one round of a fixed pure-Python loop, which stresses the interpreter the
way the library does (small tuples, dicts, integer and Fraction
arithmetic), about a tenth of the CPU time.  The rounds' time is taken out of the analysis's time,
and what is left is scaled by REF_ROUND_S over the mean round time measured
during the analysis: the result is what the analysis takes on a machine
where one round takes REF_ROUND_S.  A change to the library moves the
scaled times; a change in how fast the machine runs Python moves the rounds
and the analysis alike and cancels.

Times are read from the calling thread's CPU clock: while a process-wide
CPU timer is armed, Linux updates the process CPU clock only at scheduler
ticks.  The library runs in the calling thread (jobs=1).
"""
from __future__ import annotations

import signal
from fractions import Fraction
from time import thread_time

# CPU seconds of one calibration round at the reference speed: a typical
# round on the 2-vCPU VM (Python 3.11) where the benchmark was written.
REF_ROUND_S = 0.0005
TICK_S = 0.005  # CPU time between calibration rounds
WINDOW = 20     # rounds that make a speed estimate, at least

_STEPS = (1, 2, 0, 1)


def calibration_round() -> int:
    """The fixed unit of interpreter work."""
    table = {}
    acc = Fraction(0)
    for i in range(240):
        e = (i % 7, i % 5, i % 3, i % 11)
        key = tuple(a + b for a, b in zip(e, _STEPS))
        table[key] = table.get(key, 0) + i * (i - 3)
        if i % 8 == 0:
            acc += Fraction(i, 7 + i % 13)
    return len(table) + acc.denominator


class Meter:
    """Times work in CPU seconds at the reference speed.

    Use it as a context manager, which arms the timer, and time each piece
    of work with start() and stop().  ticks holds the time of every
    calibration round, WINDOW of them run on entry; unscaled_s sums the CPU
    seconds of the work as measured.
    """

    def __init__(self):
        self.ticks = []
        self.calibration_s = 0.0  # CPU time spent in ticks
        self.unscaled_s = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t = thread_time()
        calibration_round()
        spent = thread_time() - t
        self.calibration_s += spent
        self.ticks.append(spent)

    def __enter__(self):
        for _ in range(WINDOW):
            self._tick()
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def start(self):
        return thread_time(), self.calibration_s, len(self.ticks)

    def stop(self, mark) -> float:
        """CPU seconds at the reference speed since start() returned mark.

        The speed is the mean time of the rounds run during the work, or of
        the last WINDOW rounds when fewer ran during it.
        """
        t, calibration, first = mark
        unscaled = thread_time() - t - (self.calibration_s - calibration)
        last = len(self.ticks)
        window = self.ticks[min(first, last - WINDOW):last]
        self.unscaled_s += unscaled
        return unscaled * REF_ROUND_S * len(window) / sum(window)


def round_time(seconds: float) -> float:
    """Mean time of calibration rounds run for seconds of CPU time."""
    n = 0
    t = thread_time()
    while True:
        calibration_round()
        n += 1
        spent = thread_time() - t
        if spent >= seconds:
            return spent / n
