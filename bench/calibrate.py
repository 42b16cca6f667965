"""Fixed reference kernel that rescales timings to one machine speed.

The machine the benchmark runs on is shared: the speed of every process
on it shifts by up to about 1.6x in phases of seconds to minutes, which is
longer than a run.  A run median cannot remove a phase that covers most of
the run, so each timed interval is instead bracketed by two timings of a
fixed pure-Python kernel (exact ``Fraction`` arithmetic, JSON encoding,
list rebuilding; the kind of work ``braidsurgery`` does) and rescaled::

    scaled = measured * REF_S / mean(kernel before, kernel after)

``REF_S`` is the kernel's time on the unloaded machine, so a scaled time
reads as seconds at that speed.  The kernel does not import
``braidsurgery``: a change to the program moves the scaled time exactly
as it moves the measured one, while a change in machine speed moves the
measured time and the kernel alike and cancels.
"""

from __future__ import annotations

import gc
import json
import statistics
from fractions import Fraction
from time import perf_counter

# Median kernel time on the unloaded 2-core machine the benchmark was
# written on (Python 3.11.7).  It only fixes the scale of the output.
REF_S = 0.007
# Each bracket is the median of this many kernel timings, so one timer
# interrupt or preemption does not skew the scale of a whole interval.
REPEATS = 3


def kernel() -> int:
    total = Fraction(0)
    for i in range(1, 500):
        total += Fraction(i % 97, i)
    rows = [{"a": i, "b": [i, 3 * i, str(i)], "c": {"x": i % 7}} for i in range(500)]
    text = "\n".join(json.dumps(row, sort_keys=True) for row in rows)
    words = [i % 5 for i in range(8000)]
    while len(words) > 2:
        words = [a + b for a, b in zip(words[::2], words[1::2])]
    return total.numerator % 7 + len(text) + sum(words)


def time_kernel() -> float:
    """One bracket: the median of ``REPEATS`` timings of ``kernel``.

    The collector is off while it runs, so the size of the heap that the
    program under test left behind does not change the kernel's time.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def warm_up() -> None:
    """Run the kernel untimed, so the first bracket is not a cold start."""
    for _ in range(3):
        kernel()


def scale(brackets: list[float]) -> list[float]:
    """Factor for each interval between consecutive ``brackets``."""
    return [2 * REF_S / (a + b) for a, b in zip(brackets, brackets[1:])]
