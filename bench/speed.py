"""Machine-speed correction for timings on a host whose CPU speed drifts.

On a shared 2-vCPU virtual machine the speed of one core swings by up to
2x within seconds, in CPU time as well as wall time: the best of 20 calls
of a fixed loop of Fraction sums and 4096-point FFTs ranged from 6.3 to
14.5 ms across consecutive windows of about 0.2 s.  A ``SpeedProbe`` times a
fixed reference kernel, which uses no alphamod code, every
``PERIOD_S`` seconds from a ``SIGALRM`` handler.  Each operation's latency
has the probe time that fell inside it removed and is scaled by
``NOMINAL_S / probe time`` averaged over the probes inside the operation
(or taken from the latest probe when none fell inside), so a timing reads
as it would on a core on which the probe takes ``NOMINAL_S``.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.05
NOMINAL_S = 1.0e-3
_FFT_INPUT = np.random.default_rng(0).standard_normal(4096) + 0j


def reference_kernel():
    """Pure-Python rational arithmetic plus small FFTs, about 1 ms."""
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction(1, i)
    for _ in range(10):
        np.fft.ifft(_FFT_INPUT)
    return total


class SpeedProbe:
    """Samples the reference kernel on a timer while running."""

    def __init__(self):
        self.probe_s = 0.0          # summed probe time, removed from latencies
        self.factor_sum = 0.0       # summed NOMINAL_S / probe time
        self.samples = 0
        self.last_factor = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        dt = time.perf_counter() - t0
        factor = NOMINAL_S / dt
        self.probe_s += time.perf_counter() - t0
        self.factor_sum += factor
        self.samples += 1
        self.last_factor = factor

    def start(self):
        reference_kernel()  # the first call pays one-time costs; not a sample
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return self.probe_s, self.factor_sum, self.samples

    def corrected(self, raw_s: float, before: tuple) -> float:
        """Latency of one operation, probe time removed, at nominal speed."""
        probe_s, factor_sum, samples = self.mark()
        busy = raw_s - (probe_s - before[0])
        count = samples - before[2]
        factor = (factor_sum - before[1]) / count if count else self.last_factor
        return busy * factor
