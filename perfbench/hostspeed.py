"""Host speed correction for the end-to-end times.

The vCPUs of a shared 2-vCPU Intel Xeon host (2.1 GHz) change speed by up
to 2x, in stretches of seconds to minutes, and user CPU time follows wall time,
so the drift is the host's and not the scheduler's.  Raw wall times of the
same op spread by 11-15% (coefficient of variation) from run to run.

To take that out, a short fixed probe (dict, string and sort work, like the
package's own inner loops) is timed every INTERVAL_S seconds inside the op
process, on whatever vCPU it is running, from a SIGALRM handler.  Each
stretch of wall time between two probes is scaled by REF_S / (the probe's
time at the end of the stretch); `Sampler.factor` is the time-weighted mean
of those scales.  A raw time multiplied by its factor is the time the op
would take on a host whose probe takes REF_S.  On the host above this cut
the coefficient of variation of ops of 1.5-13 s to 3.5-6%.  The probes cost
about 1.5% of an op's time, in every pass alike.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.2
REF_S = 0.003  # probe time at the reference speed, about its median on that host


def probe() -> float:
    """Seconds for one fixed probe, about REF_S."""
    t0 = time.perf_counter()
    seen: dict[str, int] = {}
    for i in range(3000):
        s = format(i * 2654435761 % 4294967296, "x")
        seen[s] = seen.get(s, 0) + len(s)
    keys = sorted(seen)
    _ = {k for k in keys if k[0] < "8"}
    return time.perf_counter() - t0


def factor_of(probes: list[float]) -> float:
    """Scale for a short interval with probes taken around it."""
    return REF_S / statistics.median(probes)


class Sampler:
    """Times `probe` every INTERVAL_S seconds of wall time in this process."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []  # (time before probe, probe)
        self.t_start = 0.0

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self.ticks.append((t, probe()))

    def start(self) -> None:
        self.t_start = time.perf_counter()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop sampling; one last probe covers the stretch since the last
        tick (it runs after the op, so it is not in the op's time)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick(signal.SIGALRM, None)

    def factor(self) -> float:
        """Time-weighted mean of REF_S / probe over the sampled stretches."""
        scaled, prev = 0.0, self.t_start
        for t, p in self.ticks:
            scaled += (t - prev) * REF_S / p
            prev = t
        return scaled / (prev - self.t_start) if prev > self.t_start else REF_S / self.ticks[-1][1]
