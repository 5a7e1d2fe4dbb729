"""Host-speed probe: rescales measured times to the host's fast mode.

On a shared host the same code runs in a fast mode and a mode 1.5x to
1.8x slower, in bursts from a fraction of a second to tens of seconds,
and the share of slow time varies from run to run (a fixed pure-Python
loop: 2.55 ms fast, 3.7 to 4.1 ms slow; the governor's median call
0.075 ms and 0.13 ms).  A multi-second build straddles both modes, so
no statistic over whole operations repeats.  The probe times a fixed
kernel of small numpy calls, which slows about as much as the package's
code, on a timer signal every PERIOD_S seconds; it runs the kernel once
untimed first, so a cold cache after the interrupted code does not count
as a slow host.  The host speed in each interval between probes is the
reference (REFERENCE_PERCENTILE-th percentile) probe time over that
probe's time, capped at 1, and a span's corrected duration is its length
weighted by that speed: operations that run in fast mode keep their wall
time, and time spent in slow mode is scaled down to fast-mode speed.
The correction is partial.  Within one process it holds ACC build times
to a 1.6% coefficient of variation while the slow share swings, but
across processes, under heavy contention, ten-seed spreads of 5% to 12%
remain (20% to 40% uncorrected).

The signal handler runs between bytecodes of the one benchmark thread;
it wraps nothing and starts no thread.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02
REFERENCE_PERCENTILE = 5

_M = np.array([[0.5, 0.1, 0.0], [0.0, 0.4, 0.2], [0.1, 0.0, 0.3]])


def _kernel() -> float:
    """Fixed mix of small numpy calls and interpreter work, like the
    package's own inner loops."""
    x = np.ones(3)
    acc = 0.0
    for i in range(40):
        x = _M @ x + 1.0
        acc += float(x[0]) * 0.5 + i
    return acc


class HostProbe:
    """Samples host speed while entered; `corrected()` rescales spans."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._saved = None

    def _sample(self, signum, frame) -> None:
        _kernel()
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def __enter__(self) -> "HostProbe":
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self._prepare()

    def _prepare(self) -> None:
        t = np.asarray(self.ends)
        d = np.asarray(self.durations)
        if t.size < 2:
            raise RuntimeError("host probe took fewer than two samples")
        speed = np.minimum(1.0, np.percentile(d, REFERENCE_PERCENTILE) / d)
        # Corrected time elapsed at each probe; speed[k] holds on (t[k-1], t[k]].
        self._t = t
        self._speed = speed
        self._c = np.concatenate([[0.0], np.cumsum(np.diff(t) * speed[1:])])

    def _cumulative(self, x: np.ndarray) -> np.ndarray:
        t, c, speed = self._t, self._c, self._speed
        k = np.clip(np.searchsorted(t, x), 1, t.size - 1)
        # Before the first probe or after the last, the nearest interval's speed holds.
        return c[k - 1] + (x - t[k - 1]) * speed[k]

    def corrected(self, starts, ends) -> np.ndarray:
        """Corrected durations of the spans [starts[i], ends[i]]."""
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        return self._cumulative(ends) - self._cumulative(starts)

    def slow_share(self) -> float:
        """Share of probes that ran more than 20% slower than the reference."""
        return float(np.mean(self._speed < 1.0 / 1.2))
