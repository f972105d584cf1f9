"""Machine-speed probe that makes run times comparable on a noisy host.

On a shared machine the same work can take twice as long from one ten
seconds to the next, in wall and CPU time alike, because neighbours take
a varying share of the cores. A round therefore times a fixed pure-Python
reference kernel every PERIOD_S (from a SIGALRM timer) and at every job
boundary. Each stretch of program time between two probes is scaled by
REFERENCE_S over the local probe duration, so a reported time is "seconds
on a machine where the reference kernel takes REFERENCE_S". Probe time
itself is excluded. The kernel is part of the benchmark and independent of
the package, so a faster program still reads faster.
"""

from __future__ import annotations

import math
import signal
import time

PERIOD_S = 0.2
KERNEL_ITERATIONS = 24_000
REFERENCE_S = 0.005   # typical probe duration on the 2-core machine the benchmark was tuned on


def kernel(n: int = KERNEL_ITERATIONS) -> float:
    """Fixed interpreter-bound work: float math, calls and dict stores."""
    acc = 0.0
    table = {}
    for i in range(n):
        x = (i % 97) * 0.5
        acc += math.sqrt(x + 1.0) * math.sin(x)
        table[i & 63] = acc
    return acc


class SpeedProbe:
    """Records (start, end) of reference-kernel runs on the monotonic clock."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.on_sample = None   # called with each probe's duration
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.monotonic()
        kernel()
        t1 = time.monotonic()
        self.samples.append((t0, t1))
        if self.on_sample is not None:
            self.on_sample(t1 - t0)
        self._busy = False

    def start(self, period: float = PERIOD_S) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, a: float, b: float) -> tuple[float, float]:
        """(time in [a, b] outside probes, the same scaled to REFERENCE_S).

        A stretch between two probes is scaled by the mean of their
        durations; a stretch with a probe on one side only, by that one.
        Needs at least one probe at or after ``b`` or at or before ``a``.
        """
        before = None
        inside = []
        after = None
        for p in self.samples:
            if p[1] <= a:
                before = p
            elif p[0] >= b:
                after = p
                break
            else:
                inside.append(p)
        bounds = [before] + inside + [after]
        starts = [a] + [p[1] for p in inside]
        ends = [p[0] for p in inside] + [b]
        net = scaled = 0.0
        for k, (s, e) in enumerate(zip(starts, ends)):
            durations = [p[1] - p[0] for p in bounds[k:k + 2] if p is not None]
            net += e - s
            scaled += (e - s) * REFERENCE_S * len(durations) / sum(durations)
        return net, scaled
