"""Host-speed sampling: scale measured times to one reference speed.

On a shared host the same code runs at different speeds from one
second to the next (on the 2-vCPU host the benchmark was built on, two
levels about 1.7x apart, with slow stretches that last minutes).  A
timing taken in a slow stretch then reads as a regression.  So while a
pass runs, a real-time interval timer interrupts the process every
``PERIOD_S`` and times a fixed pure-Python ``probe``; the probe's
trimmed mean over the pass says how fast the host ran during it.

:meth:`Sampler.factor` is ``REFERENCE_PROBE_S`` over that mean, and
every time of the pass is multiplied by it: the result is what the pass
would have taken with the probe at its reference time, i.e. on the
build host at full speed.  The program's own code is never timed by the
probe, so a change that makes the program do more work shows in full.

The signal handler runs in the main thread, on the CPU the main thread
is on.  For ``table`` the main thread waits while two workers use both
CPUs, so its samples land on whichever CPU it is woken on and average
over the two.  Forked workers inherit the handler but not the timer.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Optional

#: Sampling period of the real-time interval timer.
PERIOD_S = 0.005
#: Trimmed-mean probe time on the build host at full speed (a 2-vCPU
#: Intel Xeon VM, CPython 3.11): scaled times read as seconds there.
REFERENCE_PROBE_S = 50e-6
#: Share of the fastest samples kept: a probe interrupted by the
#: scheduler or a page fault says nothing about the host's speed.
KEEP = 0.95
#: Samples around a moment that give its local speed (about 0.2 s).
LOCAL = 40


def trimmed_mean(samples: List[float]) -> float:
    kept = sorted(samples)[:max(1, int(len(samples) * KEEP))]
    return statistics.fmean(kept)


def probe() -> int:
    """A fixed integer loop: no allocation (so no garbage collection),
    no memory beyond the first-level cache."""
    acc = 0
    for i in range(400):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc


class Sampler:
    """``with Sampler() as s:`` samples host speed until the block ends."""

    def __init__(self) -> None:
        #: probe seconds, and the ``perf_counter`` moment each started
        self.samples: List[float] = []
        self.times: List[float] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - start)
        self.times.append(start)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_s(self) -> Optional[float]:
        """Trimmed mean probe time, or ``None`` before any sample."""
        return trimmed_mean(self.samples) if self.samples else None

    def factor(self) -> float:
        """Multiply a time measured in the block by this to scale it to
        the reference speed (1.0 when the block was too short to
        sample)."""
        probe_s = self.probe_s()
        return 1.0 if probe_s is None else REFERENCE_PROBE_S / probe_s

    def factor_near(self, moment: float) -> float:
        """:meth:`factor` from the ``LOCAL`` samples nearest ``moment``,
        for a short span inside the block: host speed flips within a
        second, so the block's average can miss a span's speed."""
        if not self.samples:
            return 1.0
        i = bisect.bisect(self.times, moment)
        lo = max(0, min(i - LOCAL // 2, len(self.samples) - LOCAL))
        return REFERENCE_PROBE_S / trimmed_mean(self.samples[lo:lo + LOCAL])
