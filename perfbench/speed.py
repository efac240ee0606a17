"""End-to-end times at a fixed reference speed of the machine.

The benchmark runs on a shared machine whose speed drifts: the same
pass of ``adhoc`` queries took 3.0 s in one minute and 6.5 s a few
minutes earlier, with nothing else running in the container, and a
plain CPU loop varies by 60% within seconds.  Medians within a run do
not remove drift that outlasts a run, so two sets of runs of the same
code disagreed by more than any useful bound.

Every end-to-end time is therefore reported at a reference speed.  The
benchmark times a fixed loop of its own (no program code) between
pieces of timed work, and scales each piece by :data:`REFERENCE_S` over
the mean of the loop's times right before and right after it.  The loop
is timed in this thread's CPU time: CPU time that goes elsewhere (the
server between requests, another thread of the program) does not make
the machine look slow.  It allocates nothing the garbage collector
tracks, so the program's heap cannot change its time either.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Optional

#: iterations of the reference loop (about 8 ms)
REFERENCE_LOOPS = 100_000
#: the loop's time at the reference speed, in seconds
REFERENCE_S = 0.008


def reference_loop() -> float:
    """This thread's CPU time for one run of the reference loop."""
    started = time.thread_time()
    x = 0
    for j in range(REFERENCE_LOOPS):
        x += j * j % 7
    return time.thread_time() - started


class Speed:
    """Reference-loop samples between pieces of timed work.

    Call :meth:`sample` right before a piece, and :meth:`factor` right
    after it; the sample :meth:`factor` takes is also the one before the
    next piece, when that follows at once.
    """

    def __init__(self, loop=reference_loop) -> None:
        self.loop = loop
        self.samples: List[float] = []
        self.last: Optional[float] = None

    def sample(self) -> None:
        self.last = self.loop()
        self.samples.append(self.last)

    def factor(self) -> float:
        """Sample now, and return what scales the work done since the
        previous sample to the reference speed."""
        before = self.last
        if before is None:
            raise RuntimeError("no reference sample before the timed work")
        self.sample()
        return 2.0 * REFERENCE_S / (before + self.last)

    def note(self) -> str:
        """How fast the machine ran, for a metric's printed note."""
        slowdown = statistics.median(self.samples) / REFERENCE_S
        return (f"at the reference speed; the machine ran {slowdown:.2f}x the reference "
                f"loop's time (median of {len(self.samples)} samples)")
