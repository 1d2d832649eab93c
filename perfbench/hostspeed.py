"""How fast the host runs Python while a round runs, from a fixed reference loop.

The benchmark runs on shared virtual machines, where the same work can take
up to 1.8 times as long from one minute to the next while the process keeps
its CPU the whole time (process CPU time tracks wall time within 3 %): other
tenants slow the core down, they do not take it away.  A run's own median
cannot average such phases out, because they last as long as a run.

So each round process runs :func:`reference_loop` — a fixed pure-Python loop
that uses nothing of the program — once when it starts and then every
:data:`SAMPLE_INTERVAL_SECONDS` from a ``SIGALRM`` handler, between the
program's own bytecodes.  The loop's mean time over a stretch of the round,
against :data:`REFERENCE_SAMPLE_SECONDS`, is the host's *speed* over that
stretch, and a time multiplied by it is the time the stretch would have
taken on the reference host.  The program's own code is timed as before; only
the host's speed is taken out.  The sampling costs about 0.7 % of a round,
the same for every round.
"""

from __future__ import annotations

import signal
import statistics
from time import monotonic
from typing import List, Optional, Sequence, Tuple

#: Seconds between two samples of the reference loop.
SAMPLE_INTERVAL_SECONDS = 0.2
#: Iterations of the reference loop per sample.
REFERENCE_ITERATIONS = 20_000
#: One sample's time on the reference host: the 2-vCPU Xeon VM (2.1 GHz)
#: the benchmark was defined on, at a quiet moment.  Speed 1.0 means as fast.
REFERENCE_SAMPLE_SECONDS = 1.25e-3

#: One sample: the monotonic time it ended at and the seconds it took.
Sample = Tuple[float, float]


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> int:
    """Fixed interpreter work: integer arithmetic in a plain loop."""
    total = 0
    for value in range(iterations):
        total += value * value % 7
    return total


class HostSpeedSampler:
    """Times :func:`reference_loop` now and then every interval, until stopped."""

    def __init__(self, interval: float = SAMPLE_INTERVAL_SECONDS) -> None:
        self.interval = interval
        self.samples: List[Sample] = []
        self._previous_handler = None

    def sample(self, *_: object) -> None:
        started = monotonic()
        reference_loop()
        ended = monotonic()
        self.samples.append((ended, ended - started))

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)


def speed(samples: Sequence[Sample], start: float, end: Optional[float] = None) -> float:
    """The host's speed over ``[start, end]`` relative to the reference host.

    Uses the samples that ended in the interval, or every sample when none
    did (an interval shorter than :data:`SAMPLE_INTERVAL_SECONDS`).
    """
    inside = [seconds for ended, seconds in samples
              if start <= ended and (end is None or ended <= end)]
    return REFERENCE_SAMPLE_SECONDS / statistics.fmean(
        inside or [seconds for _, seconds in samples]
    )
