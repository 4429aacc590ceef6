"""Follow the machine's speed with a fixed reference computation.

On a shared 2-vCPU Linux VM (Python 3.11.7) the speed of the same
single-threaded Python code moved by 20-30 % within seconds and drifted
as much over minutes.  A pass that took 29 s in one minute took 21 s a
few minutes later, and repeats inside one run cannot remove that.

So the benchmark also times a small computation that never changes and
does not use the package: integer arithmetic, tuples, joins and a dict,
the kinds of work the program does.  ``SpeedSampler`` runs it from a
SIGALRM handler every SAMPLE_EVERY_S while the workload runs, which
samples the machine's speed evenly over the same seconds.  The time
spent in the handler is taken out of every measured time, and every
time the benchmark reports is then scaled by REFERENCE_S / (mean
reference time over that stretch): the time it would have taken at the
speed where the reference computation takes REFERENCE_S.  A program
that gets slower still reads slower, because the reference does not
change with the program.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

# Median time of one reference computation on that VM in a quiet minute.
# Changing it rescales every time the benchmark reports.
REFERENCE_S = 0.0125
SAMPLE_EVERY_S = 0.1
MIN_SAMPLES = 10  # fewer samples inside an operation: use its pass's


def reference_work() -> int:
    acc = 0
    seen = {}
    for i in range(6000):
        t = tuple(range(i % 9))
        s = " ".join([str(x) for x in t])
        seen[t] = len(s)
        acc += sum(t) * (i & 3)
    return acc + len(seen)


def reference_seconds(repeats: int = 1) -> float:
    """Median time of ``repeats`` runs of the reference computation."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        reference_work()
        times.append(perf_counter() - start)
    return statistics.median(times)


class SpeedSampler:
    """Times the reference computation on a timer while it is running.

    ``clock()`` is perf_counter minus the time spent sampling, so spans
    measured with it exclude the sampler; ``samples_since(mark)`` gives
    the reference times taken after a ``len(sampler.samples)`` mark.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(reference_seconds())
        self.spent += perf_counter() - start

    def clock(self) -> float:
        return perf_counter() - self.spent

    def __enter__(self) -> "SpeedSampler":
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        if not self.samples:  # a stretch shorter than one period
            self._sample(None, None)

    def scale(self, samples: list[float] | None = None) -> float:
        """Factor that turns a measured time into reference-speed time."""
        return REFERENCE_S / statistics.fmean(self.samples if samples is None else samples)
