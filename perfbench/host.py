"""Host fingerprint, calibration loop and the bare-heapq kernel floor.

Wall-clock numbers only compare within one host.  :func:`fingerprint`
names the host (CPU model, core count, Python build) and times a fixed
pure-Python calibration loop, so two result files can be checked for
comparability before their timings are read side by side.

:func:`probe_us` times the cheapest discrete-event kernel Python allows
-- a bare ``heapq`` of ``(time, seq, handler)`` tuples, popped and
dispatched in a loop, in the style of the ``Kernel`` in uav-rfid-sim's
``pysim/des.py``.  It is the benchmark's host-speed probe.  On a shared
host the CPU speed a process gets drifts by a third within minutes, and
within a second by a tenth, and the simulator slows with it.
:class:`RefClock` probes before, during and after a timed call to
measure the speed the call ran at, and gives the factor that converts
the call's host seconds into reference seconds: seconds at the speed
``REFERENCE_FLOOR_US``.  The same probe gives the kernel floor of
``sim.floor_multiple``.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import platform
import signal
import statistics
import time

__all__ = ["fingerprint", "calibration_ms", "probe_us", "RefClock",
           "REFERENCE_FLOOR_US"]

# Iterations of the calibration loop; fixed so the time is comparable
# across runs and hosts.
_CALIBRATION_ITERS = 200_000

# Events per probe before and after a timed call (about 40 ms on the
# reference host) and per sample inside it (about 4 ms, every
# SAMPLE_INTERVAL_S, so sampling pauses the call for about 4% of its
# time), and the number of events kept pending, about the heap depth of
# a 16-node run.
_PROBE_EVENTS = 50_000
_SAMPLE_EVENTS = 5_000
SAMPLE_INTERVAL_S = 0.1
_FLOOR_PENDING = 64

# The probe's microseconds per event on the host the bounds were set on
# (a shared 2-core Intel Xeon, CPython 3): scaled times read as seconds
# on that host at its median speed.  Fixed, so scaled times compare
# across runs; changing it rescales every time the benchmark reports.
REFERENCE_FLOOR_US = 0.75

# Repeats behind each reported median.
_REPEATS = 3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _calibration_loop() -> int:
    acc = 0
    table = {}
    for i in range(_CALIBRATION_ITERS):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    return acc + len(table)


def calibration_ms() -> float:
    """Median host milliseconds of the fixed pure-Python loop."""
    samples = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _calibration_loop()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def fingerprint() -> dict:
    """The host identity plus its calibration-loop time.

    ``id`` hashes the fields that must match for wall-clock results to
    be comparable; ``calibration_ms`` is context, since it moves with
    load on a shared host.
    """
    host = {
        "cpu_model": _cpu_model(),
        "cores": os.cpu_count() or 0,
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
    }
    blob = "|".join(f"{k}={host[k]}" for k in sorted(host))
    host["id"] = hashlib.sha256(blob.encode()).hexdigest()[:16]
    host["calibration_ms"] = calibration_ms()
    return host


def _floor_once(n_events: int) -> float:
    """Seconds to dispatch ``n_events`` through a bare heapq kernel."""
    heap = []
    push = heapq.heappush
    pop = heapq.heappop
    delays = [1.0 + (i * 7919) % 97 for i in range(1024)]
    seq = 0

    def handler(now):
        # Each dispatch schedules its successor, so the heap depth stays
        # constant, like a simulator's steady state.
        nonlocal seq
        seq += 1
        push(heap, (now + delays[seq & 1023], seq, handler))

    for _ in range(_FLOOR_PENDING):
        handler(0.0)
    start = time.perf_counter()
    for _ in range(n_events):
        now, _seq, fn = pop(heap)
        fn(now)
    return time.perf_counter() - start


def probe_us(events: int = _PROBE_EVENTS) -> float:
    """Host microseconds per event of one short bare-heapq kernel run."""
    return _floor_once(events) / events * 1e6


class RefClock:
    """A stopwatch that also measures the host speed it ran at.

    Entering and leaving the block each run a probe.  With
    ``sample_every`` (seconds), a ``SIGALRM`` handler also runs a short
    probe that often inside the block; :meth:`now` leaves out the time
    those samples pause the block for.  After the block, :attr:`scale`
    is the mean probed speed over the reference speed: an interval
    measured with :meth:`now` inside the block, times ``scale``, is in
    reference seconds.  ``probes=False`` makes a plain stopwatch whose
    ``scale`` is 1, for passes under the sampling profiler, which the
    probes would dilute.
    """

    def __init__(self, sample_every=SAMPLE_INTERVAL_S, probes=True):
        self.probes = probes
        self.sample_every = sample_every if probes else None
        self.speeds = []          # REFERENCE_FLOOR_US / probe µs
        self.paused = 0.0         # host seconds spent in samples
        self._previous = None

    def now(self) -> float:
        """Host seconds, less the time spent in samples."""
        return time.perf_counter() - self.paused

    def _probe(self, events: int) -> None:
        self.speeds.append(REFERENCE_FLOOR_US / probe_us(events))

    def _on_alarm(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self._probe(_SAMPLE_EVENTS)
        self.paused += time.perf_counter() - start

    def __enter__(self) -> "RefClock":
        if self.probes:
            self._probe(_PROBE_EVENTS)
        if self.sample_every:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.sample_every,
                             self.sample_every)
        return self

    def __exit__(self, *exc) -> None:
        if self.sample_every:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM,
                          self._previous or signal.SIG_DFL)
        if self.probes:
            self._probe(_PROBE_EVENTS)

    @property
    def scale(self) -> float:
        """Reference seconds per host second inside the block."""
        return statistics.fmean(self.speeds) if self.speeds else 1.0
