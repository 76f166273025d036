"""Host-speed calibration interleaved with the simulation.

The benchmark host is a few virtual CPUs of a shared machine.  Its speed
drifts by 15-25 % over seconds to minutes, so two runs of the same code
minutes apart disagree by more than any useful bound.  Most of that drift
slows all interpreted code alike, so it can be measured and taken out: a
fixed pure-Python pass (heap pushes and pops, dict updates, attribute and
list reads over a small object table), independent of the program under
test, runs every ``INTERVAL_S`` of host time between simulation events.
The mean pass time over a repetition says how fast the host was while that
repetition ran, and host times are rescaled to a host on which one pass
takes ``NOMINAL_PASS_S``:

    calibrated_s = measured_s * NOMINAL_PASS_S / mean_pass_s

The passes themselves are excluded from the measured time.  A change to the
program cannot move the pass, so a faster program still reads faster.

The pass measures CPU speed, not the disk.  So while the simulation runs,
each pass also appends one block to a scratch file and fsyncs it, and the
program's own time in ``os.fsync`` is rescaled by the median of those
reference fsyncs instead.
"""

from __future__ import annotations

import heapq
import os
import random
import statistics
from time import perf_counter

#: Captured at import, before a repetition wraps ``os.fsync`` to time the
#: program's own calls.
_fsync = os.fsync
_BLOCK = b"\0" * 4096

#: Mean pass time on a quiet host (two-core Xeon VM, Python 3.11); only a
#: scale, so calibrated figures read in seconds of roughly that host.
NOMINAL_PASS_S = 2.0e-3
#: Median reference fsync (one appended 4 KiB block) on the same host.
NOMINAL_FSYNC_S = 2.5e-4
#: Host time between passes while the simulation runs.
INTERVAL_S = 0.03
#: Passes before each timed harness build and after the last.
SETUP_PASSES = 8
#: Engine events between checks of the clock.
_CHECK_EVERY = 64


class _Node:
    __slots__ = ("key", "vals", "link")

    def __init__(self, key: int) -> None:
        self.key = key
        self.vals = [key] * 4
        self.link = None


_rng = random.Random(20261017)
_TABLE = {i: _Node(i) for i in range(4000)}
_KEYS = [_rng.randrange(4000) for _ in range(4096)]


def _pass() -> int:
    heap = []
    counts = {}
    for i in range(1500):
        heapq.heappush(heap, (i * 7919) % 1009)
        counts[i % 113] = counts.get(i % 113, 0) + 1
    while heap:
        heapq.heappop(heap)
    acc = 0
    for key in _KEYS:
        node = _TABLE[key]
        acc += node.vals[1]
        node.link = _KEYS
    return acc


def _disk_pass(fd: int) -> float:
    """Append one block to ``fd`` and fsync it; returns the fsync time."""
    os.write(fd, _BLOCK)
    start = perf_counter()
    _fsync(fd)
    return perf_counter() - start


class Calibration:
    """Times calibration passes and the simulation time between them."""

    def __init__(self) -> None:
        self.pass_s = []
        #: Reference fsync times, when a disk pass accompanies each pass.
        self.fsync_s = []
        #: Host time spent in passes while the engine ran.
        self.in_run_s = 0.0

    def passes(self, count: int) -> float:
        """Run ``count`` passes; returns their total host time."""
        total = 0.0
        for _ in range(count):
            start = perf_counter()
            _pass()
            elapsed = perf_counter() - start
            self.pass_s.append(elapsed)
            total += elapsed
        return total

    def mean_pass_s(self) -> float:
        return sum(self.pass_s) / len(self.pass_s)

    def scale(self, seconds: float) -> float:
        """``seconds`` measured on this host, rescaled to the nominal one."""
        return seconds * NOMINAL_PASS_S / self.mean_pass_s()

    def scale_fsync(self, seconds: float) -> float:
        """Time spent in fsync, rescaled to a disk whose median reference
        fsync takes ``NOMINAL_FSYNC_S`` (the median: fsync times have a
        long tail)."""
        return seconds * NOMINAL_FSYNC_S / statistics.median(self.fsync_s)

    def attach(self, engine, disk_dir: str) -> None:
        """Interleave passes with ``engine``'s events (an instance-level
        wrapper of ``Engine.step``; the engine's own code is untouched),
        each with a reference fsync of a file in ``disk_dir``.  Runs one
        pass first, so a repetition always has one."""
        fd = os.open(os.path.join(disk_dir, "calibration"),
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._fd = fd

        def one_pass() -> float:
            start = perf_counter()
            self.passes(1)
            self.fsync_s.append(_disk_pass(fd))
            return perf_counter() - start

        one_pass()
        step = engine.step
        fired = 0
        due = perf_counter() + INTERVAL_S

        def calibrated_step():
            nonlocal fired, due
            fired += 1
            if not fired % _CHECK_EVERY and perf_counter() >= due:
                self.in_run_s += one_pass()
                due = perf_counter() + INTERVAL_S
            return step()

        engine.step = calibrated_step

    def detach(self, engine) -> None:
        del engine.step
        os.close(self._fd)
